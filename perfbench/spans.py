"""Tracing from outside the program.

The tracer replaces public functions of griddesigns with wrappers wherever a
caller looks them up (for example `search.canonical_form`, which `search`
imported from `bigraph`, or `criteria.stats`).  Each wrapped call becomes a
span with a name, start, end, parent span and job id; counts are taken from
call arguments and return values seen at the wrapper.  Spans stay in memory
until the run ends.  A name that no longer exists in its module is reported
as missing rather than failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from math import comb

from measure import self_times

PACKAGE = "griddesigns"
ROOT_SPAN = "cli"


def _generators(tracer, ret):
    gens = ret.g_gens if ret.g_gens is not None else ret.k_gens
    tracer.counts["permgroup.generators"] += len(gens)


def _canonical_key(tracer, key):
    if key in tracer.job_keys:
        tracer.counts["search.dedup_hits"] += 1
    else:
        tracer.job_keys.add(key)


def _target_check(tracer, args, kwargs):
    if tracer.within("search.exhaustive_search"):
        tracer.counts["search.target_checks"] += 1


def _coverage(tracer, args, kwargs):
    design = args[0] if args else kwargs["d"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.counts["oracle.coverage_increments"] += design.b * comb(design.k, t)


def _add(counter, measure):
    def hook(tracer, value):
        tracer.counts[counter] += measure(value)
    return hook


# (module, attribute, span name or None for count-only, on_call, on_result)
# on_result sees the return value, or each yielded item of a generator.
TARGETS = (
    ("bigraph", "canonical_form", "bigraph.canonical_form", None, _canonical_key),
    ("bigraph", "stats", "bigraph.stats", None, None),
    ("bigraph", "parse_graph_text", "bigraph.parse_graph_text", None, None),
    ("permgroup", "automorphisms", "permgroup.automorphisms", None, _generators),
    ("permgroup", "order_from_generators", "permgroup.order_from_generators",
     None, None),
    ("criteria", "evaluate", "criteria.evaluate", None, None),
    ("criteria", "check_D", "criteria.check", _target_check, None),
    ("criteria", "check_Dhat", "criteria.check", _target_check, None),
    ("oracle", "materialize", "oracle.materialize", None,
     _add("oracle.blocks", lambda d: d.b)),
    ("oracle", "lambda_table", "oracle.lambda_table", _coverage, None),
    ("oracle", "orbit_ratio_check", "oracle.orbit_ratio_check", None, None),
    ("oracle", "flag_transitive_direct", "oracle.flag_transitive_direct",
     None, None),
    ("scanner", "scan_square_3design", "scanner.scan_square_3design", None,
     _add("scanner.tuples", len)),
    ("scanner", "scan_square_2design", "scanner.scan_square_2design", None,
     _add("scanner.tuples", len)),
    ("scanner", "scan_general_3design", "scanner.scan_general_3design", None,
     _add("scanner.tuples", len)),
    ("search", "degree_branches", "search.degree_branches", None,
     _add("search.branches", len)),
    ("search", "exhaustive_search", "search.exhaustive_search", None,
     _add("search.results", lambda g: 1)),
    # private, so it may disappear; it is the only place realized matrices
    # are visible from outside
    ("search", "_realize", None, None, _add("search.realized", lambda rows: 1)),
)


class Tracer:
    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index, job id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.job_keys: set = set()
        self._stack: list[int] = []
        self._job = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._job])
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was innermost")

    def within(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def start_job(self, job_id: str) -> int:
        """Open the root span of one CLI call."""
        self._job = job_id
        self.job_keys = set()
        return self.open(ROOT_SPAN)

    def install(self):
        """Wrap every target wherever a griddesigns module binds it; returns
        what `uninstall` needs to put the originals back."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        restore = []
        for module, attr, span, on_call, on_result in TARGETS:
            origin = sys.modules.get(f"{PACKAGE}.{module}")
            fn = getattr(origin, attr, None)
            if fn is None:
                if f"{module}.{attr}" not in self.missing:
                    self.missing.append(f"{module}.{attr}")
                continue
            wrapper = _wrap(self, fn, span, on_call, on_result)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        restore.append((mod, name, fn))
        return restore

    @staticmethod
    def uninstall(restore):
        for mod, name, fn in restore:
            setattr(mod, name, fn)


def _wrap(tracer: Tracer, fn, span, on_call, on_result):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            if on_call:
                on_call(tracer, args, kwargs)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer.open(span) if span else None
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if index is not None:
                            tracer.close(index)
                    if on_result:
                        on_result(tracer, item)
                    yield item
            finally:
                inner.close()
        return generator

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if on_call:
            on_call(tracer, args, kwargs)
        index = tracer.open(span)
        try:
            ret = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if on_result:
            on_result(tracer, ret)
        return ret
    return call


# Per-layer metrics: (name, unit, better).  Self and busy times are per pass.
PER_LAYER = (
    ("permgroup.automorphisms.calls", "count", "lower"),
    ("permgroup.automorphisms.self_s", "s", "lower"),
    ("permgroup.automorphisms.max_ms", "ms", "lower"),
    ("permgroup.generators", "count", "lower"),
    ("permgroup.order_from_generators.self_s", "s", "lower"),
    ("bigraph.canonical_form.calls", "count", "lower"),
    ("bigraph.canonical_form.self_s", "s", "lower"),
    ("bigraph.stats.calls", "count", "lower"),
    ("bigraph.stats.self_s", "s", "lower"),
    ("bigraph.parse_graph_text.self_s", "s", "lower"),
    ("search.degree_branches.self_s", "s", "lower"),
    ("search.branches", "count", "lower"),
    ("search.exhaustive_search.self_s", "s", "lower"),
    ("search.realized", "count", "lower"),
    ("search.dedup_hits", "count", "lower"),
    ("search.target_checks", "count", "lower"),
    ("search.results", "count", "higher"),
    ("search.yield_ratio", "ratio", "higher"),
    ("criteria.evaluate.calls", "count", "lower"),
    ("criteria.evaluate.self_s", "s", "lower"),
    ("criteria.check.calls", "count", "lower"),
    ("criteria.check.self_s", "s", "lower"),
    ("oracle.materialize.self_s", "s", "lower"),
    ("oracle.blocks", "count", "lower"),
    ("oracle.lambda_table.self_s", "s", "lower"),
    ("oracle.coverage_increments", "count", "lower"),
    ("oracle.orbit_ratio_check.self_s", "s", "lower"),
    ("oracle.flag_transitive_direct.self_s", "s", "lower"),
    ("scanner.scan_square_3design.self_s", "s", "lower"),
    ("scanner.scan_square_2design.self_s", "s", "lower"),
    ("scanner.scan_general_3design.self_s", "s", "lower"),
    ("scanner.tuples", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

LAYERS = ("bigraph", "permgroup", "criteria", "oracle", "scanner", "search", "cli")


def pass_metrics(spans, counts) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s), and
    each layer's share of the summed root-span time."""
    selfs = self_times(spans)
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    max_ns: dict[str, int] = defaultdict(int)
    root_ns = 0
    for span, own in zip(spans, selfs):
        name, start, end = span[0], span[1], span[2]
        self_ns[name] += own
        calls[name] += 1
        max_ns[name] = max(max_ns[name], end - start)
        if name == ROOT_SPAN:
            root_ns += end - start
    out = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = self_ns[base] / 1e9
        elif field == "calls":
            out[name] = calls[base]
        elif field == "max_ms":
            out[name] = max_ns[base] / 1e6
        else:
            out[name] = counts.get(name, 0)
    realized = counts.get("search.realized", 0)
    out["search.yield_ratio"] = counts.get("search.results", 0) / realized if realized else 0.0
    layer_ns: dict[str, int] = defaultdict(int)
    for name, ns in self_ns.items():
        layer_ns[name.partition(".")[0]] += ns
    shares = {layer: (layer_ns[layer] / root_ns if root_ns else 0.0) for layer in LAYERS}
    return out, shares
