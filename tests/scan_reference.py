"""The feasibility test as it was before residue classes, kept as a reference
for the tests.

It tries every k in 3..mn/2 against the moduli of
`griddesigns.scanner._modulus`, so it agrees with the residue-class scan
exactly when the prime-power classes and their CRT combination are right.
`factor` is the plain trial division that `scanner._factor` is held to.
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


def factor(q: int) -> dict[int, int]:
    """Prime -> exponent in q, dividing by every d = 2, 3, 4, ... in turn;
    a composite d never divides what is left, since its primes are gone."""
    out, d = {}, 2
    while q > 1:
        while q % d == 0:
            out[d] = out.get(d, 0) + 1
            q //= d
        d += 1
        if d * d > q and q > 1:
            out[q] = out.get(q, 0) + 1
            break
    return out
