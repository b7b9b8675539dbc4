"""The feasibility test as it was before residue classes, kept as a reference
for the tests.

It tries every k in 3..mn/2 against the moduli of
`griddesigns.scanner._modulus`, so it agrees with the residue-class scan
exactly when the prime-power classes and their CRT combination are right.
"""

from griddesigns.scanner import _modulus


def feasible_ks(design: str, m: int, n: int, t: int) -> list[int]:
    """The k in 3..mn/2 for which every target up to level t is integral."""
    q2 = _modulus(design, m, n, 2)
    ks = [k for k in range(3, m * n // 2 + 1) if k * (k - 1) % q2 == 0]
    if t == 3:
        q3 = _modulus(design, m, n, 3)
        ks = [k for k in ks if k * (k - 1) * (k - 2) % q3 == 0]
    return ks
