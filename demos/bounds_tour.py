"""Tour of the Moore-like bounds for mixed graphs.

Walks through the exact layer recurrence, the closed form, the improved
bound for diameter >= 3, and the Fibonacci identity at (r, z) = (1, 1).
"""

from mooremix import (
    DegreePair,
    fibonacci_identity_check,
    improved_bound,
    layer_counts,
    moore_bound,
    moore_bound_closed_form,
    moore_table,
)

# Layer counts of the Moore tree: at (1, 1) they follow the Fibonacci
# recurrence N_i = N_{i-1} + N_{i-2}.
dp = DegreePair(1, 1)
print("layers (1,1), k=5:", layer_counts(dp, 5).n_values)
print("M(1,1,3) =", moore_bound(dp, 3))

# The closed form is a floating-point cross-check of the exact route.
for r, z, k in [(1, 1, 3), (2, 2, 4), (0, 3, 5)]:
    exact = moore_bound(DegreePair(r, z), k)
    approx = moore_bound_closed_form(DegreePair(r, z), k)
    print(f"M({r},{z},{k}): exact {exact}, closed form {approx:.6f}")

# For diameter k >= 3 the bound of a true mixed graph (r, z >= 1) improves
# to M - r, and when r is odd an odd bound drops by one more vertex, since
# odd r forces an even order.
for k in (2, 3, 5):
    rep = improved_bound(dp, k)
    print(f"k={k}: M={rep.moore}, best bound {rep.improved}, rules {list(rep.rule_trace)}")

# M(1,1,k) = F_{k+4} - 2 with the usual Fibonacci numbering.
for k in (3, 10, 20):
    print(f"Fibonacci identity at k={k}:", fibonacci_identity_check(k))

# A corner of the bound table (d, z, k) -> M(d-z, z, k).
table = moore_table(3, 3)
for d in range(1, 4):
    row = {z: table[(d, z, 3)] for z in range(d + 1)}
    print(f"d={d}, k=3:", row)
