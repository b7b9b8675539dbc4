"""`python -m griddesigns ...`: the same command line as `griddesigns ...`."""

import sys

from .cli import main

sys.exit(main())
