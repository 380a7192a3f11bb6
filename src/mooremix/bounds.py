"""Moore-like upper bounds for totally regular mixed graphs.

A mixed graph is (r, z)-regular when every vertex has r incident edges and
z outgoing (= z incoming) arcs.  The Moore tree rooted at a vertex has layer
sizes N_i = R_i + Z_i, where R_i counts children joined to their parent by an
edge and Z_i children joined by an arc.  Everything here is exact integer
arithmetic; the closed form is a floating-point cross-check only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegenerateParametersError

__all__ = [
    "DegreePair",
    "LayerCounts",
    "ClosedFormParams",
    "BoundReport",
    "layer_counts",
    "moore_bound",
    "moore_bound_matrix",
    "moore_bound_closed_form",
    "improved_bound",
    "fibonacci",
    "fibonacci_identity_check",
    "moore_table",
]


@dataclass(frozen=True)
class DegreePair:
    """Regularity parameters: r undirected degree, z directed out/in degree."""

    r: int
    z: int

    def __post_init__(self):
        if self.r < 0 or self.z < 0:
            raise ValueError("degrees must be nonnegative")
        if self.r + self.z < 1:
            raise ValueError("total degree must be at least 1")

    @property
    def d(self) -> int:
        return self.r + self.z


@dataclass(frozen=True)
class LayerCounts:
    """Exact layer sizes (R_i, Z_i, N_i) of the Moore tree, i = 0..k."""

    entries: tuple[tuple[int, int, int], ...]

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(e[2] for e in self.entries)

    @property
    def total(self) -> int:
        return sum(self.n_values)


def layer_counts(dp: DegreePair, k: int) -> LayerCounts:
    """Layer sizes of the depth-k Moore tree via the exact recurrences.

    R_i = (r-1) R_{i-1} + r Z_{i-1} and Z_i = z N_{i-1}, with the root
    counted as an arc-child (R_0 = 0, Z_0 = 1) so that level 1 branches with
    full degree.  Valid for every (r, z), including the cycle cases (0, 1)
    and (2, 0).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    r, z = dp.r, dp.z
    entries = [(0, 1, 1)]
    for _ in range(k):
        rp, zp, _ = entries[-1]
        ri = rp * (r - 1) + zp * r
        zi = (rp + zp) * z
        entries.append((ri, zi, ri + zi))
    return LayerCounts(tuple(entries))


def moore_bound(dp: DegreePair, k: int) -> int:
    """M(r, z, k): the order of the Moore tree, exact."""
    return layer_counts(dp, k).total


def _mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat2_pow(m, e):
    result = ((1, 0), (0, 1))
    base = m
    while e:
        if e & 1:
            result = _mat2_mul(result, base)
        base = _mat2_mul(base, base)
        e >>= 1
    return result


def moore_bound_matrix(dp: DegreePair, k: int) -> int:
    """M(r, z, k) via the geometric sum of powers of B = [[r-1, r], [z, z]].

    Sum_{i<=k} B^i (0,1)^T = (B^{k+1} - I)(B - I)^{-1} (0,1)^T, and
    (B - I)^{-1} (0,1)^T = (r, 2-r)^T / (r + 2z - 2).  Independent second
    route; requires r + 2z != 2 (the denominator vanishes on the cycles).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    r, z = dp.r, dp.z
    denom = r + 2 * z - 2
    if denom == 0:
        raise DegenerateParametersError(f"matrix-sum route undefined for (r, z) = ({r}, {z})")
    m = ((r - 1, r), (z, z))
    p = _mat2_pow(m, k + 1)
    top = (p[0][0] - 1) * r + p[0][1] * (2 - r)
    bot = p[1][0] * r + (p[1][1] - 1) * (2 - r)
    total = top + bot
    if total % denom:
        raise ArithmeticError("geometric matrix sum is not integral")
    return total // denom


@dataclass(frozen=True)
class ClosedFormParams:
    """Scalars of the closed-form bound: discriminant v, roots u1 <= u2 of
    x^2 - (r+z-1)x - z, and mixing weights A + B = 1."""

    v: float
    u1: float
    u2: float
    A: float
    B: float

    @classmethod
    def from_degrees(cls, dp: DegreePair) -> "ClosedFormParams":
        r, z = dp.r, dp.z
        v = (z + r) ** 2 + 2 * (z - r) + 1
        if v <= 0:
            raise DegenerateParametersError(f"repeated root for (r, z) = ({r}, {z})")
        sv = math.sqrt(v)
        u1 = (z + r - 1 - sv) / 2
        u2 = (z + r - 1 + sv) / 2
        a = (sv - (z + r + 1)) / (2 * sv)
        b = (sv + (z + r + 1)) / (2 * sv)
        return cls(v=v, u1=u1, u2=u2, A=a, B=b)


def moore_bound_closed_form(dp: DegreePair, k: int) -> float:
    """Floating-point evaluation of the closed-form Moore bound.

    Rejects (0, 1) and (2, 0), where one root equals 1 and the formula has a
    vanishing denominator (these are the directed and undirected cycles).
    The repeated-root case (1, 0) is evaluated directly: the tree is a
    single edge, so the bound is 2 for k >= 1.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    r, z = dp.r, dp.z
    if (r, z) in ((0, 1), (2, 0)):
        raise DegenerateParametersError(f"closed form undefined for (r, z) = ({r}, {z})")
    if (r, z) == (1, 0):
        return 1.0 if k == 0 else 2.0
    p = ClosedFormParams.from_degrees(dp)
    return p.A * (p.u1 ** (k + 1) - 1) / (p.u1 - 1) + p.B * (p.u2 ** (k + 1) - 1) / (p.u2 - 1)


@dataclass(frozen=True)
class BoundReport:
    """Moore bound together with the best applicable improvement."""

    moore: int
    improved: int
    parity_applied: bool
    rule_trace: tuple[str, ...] = field(default_factory=tuple)


def improved_bound(dp: DegreePair, k: int) -> BoundReport:
    """Best upper bound on the order of an (r, z)-regular mixed graph of
    diameter k.

    For k >= 3 and a true mixed graph (r >= 1 and z >= 1) the Moore bound
    drops by r ("thm1").  For k >= 3 and odd r, the handshake lemma forces an
    even order, so an odd bound drops by one more ("prop2").
    """
    m = moore_bound(dp, k)
    if k < 3:
        return BoundReport(moore=m, improved=m, parity_applied=False)
    rules = []
    improved = m
    if dp.r >= 1 and dp.z >= 1:
        rules.append("thm1")
        improved -= dp.r
    parity = dp.r % 2 == 1 and improved % 2 == 1
    if parity:
        rules.append("prop2")
        improved -= 1
    return BoundReport(moore=m, improved=improved, parity_applied=parity, rule_trace=tuple(rules))


def fibonacci(n: int) -> int:
    """F_n with F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    a, b = 0, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def fibonacci_identity_check(k: int) -> tuple[int, int]:
    """(M(1, 1, k), F_{k+4} - 2): both sides of the Fibonacci identity,
    computed independently."""
    return moore_bound(DegreePair(1, 1), k), fibonacci(k + 4) - 2


def moore_table(d_max: int, k_max: int) -> dict[tuple[int, int, int], int]:
    """Moore bounds M(d - z, z, k) for d = 1..d_max, z = 0..d, k = 1..k_max.

    Keyed by (d, z, k)."""
    if d_max < 1 or k_max < 1:
        raise ValueError("d_max and k_max must be positive")
    table = {}
    for d in range(1, d_max + 1):
        for z in range(d + 1):
            dp = DegreePair(d - z, z)
            for k in range(1, k_max + 1):
                table[(d, z, k)] = moore_bound(dp, k)
    return table
