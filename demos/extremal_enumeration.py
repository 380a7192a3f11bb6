"""Exhaustive enumeration of extremal (1, 1)-regular mixed graphs.

Shows that the improved bound M(1,1,3) - 1 = 10 is attained by exactly
three non-isomorphic graphs, that order 11 is impossible, and how the
repeat multisets certify the bound.
"""

from mooremix import DegreePair, SearchSpec, enumerate_classes, max_order, moore_bound
from mooremix.search import DiameterMode

dp = DegreePair(1, 1)

# The three extremal graphs with diameter exactly 3.
res = enumerate_classes(SearchSpec(dp=dp, k=3, n=10))
print(f"order 10, diameter 3: {len(res.graphs)} isomorphism classes "
      f"({res.nodes_explored} search nodes, {res.wall_time:.1f}s)")
for i, g in enumerate(res.graphs):
    print(f"  class {i}: edges {g.edges}")
    print(f"           arcs  {g.arcs}")

# Order 11 would meet the raw Moore bound; it is infeasible.
res11 = enumerate_classes(SearchSpec(dp=dp, k=3, n=11, diameter_mode=DiameterMode.AT_MOST))
print("order 11:", len(res11.graphs), "classes --", res11.infeasible_reason)

# The largest feasible order, found by scanning down from the bound.
best_n, _ = max_order(dp, 3)
print("max order at diameter <= 3:", best_n)

# Every vertex of every extremal graph has exactly one repeated vertex in
# its radius-3 walk tree: n = M - 1 forces |Rep(u)| = 1 everywhere.
m = moore_bound(dp, 3)
for i, g in enumerate(res.graphs):
    totals = {g.repeat_multiset(u, 3).total for u in range(g.n)}
    print(f"class {i}: repeat totals {sorted(totals)} (M - n = {m - g.n})")
