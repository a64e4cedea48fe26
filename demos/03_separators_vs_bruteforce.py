"""Max flow on a directed hypergraph, checked against subset enumeration.

Every hyperarc carries at most one unit of flow, in through a tail and out
through its head.  The residual of a flow is again an orientation: each
hyperarc that carries a unit is turned toward the tail it entered by, so
augmenting along a hyperpath reverses it.  The vertices still reachable
from the source in that orientation are the unique minimal minimum-degree
separator.  We print the hyperarcs of a small instance and the orientation
one flow leaves, then compare every query against brute force.
"""

import hyperorient as ho

h = ho.hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3), (2, 3)])
o = ho.Orientation(h, (2, 3, 0, 2))

print("instance:", h)
print("hyperarcs:")
for e in range(h.m):
    tail, head = o.hyperarc(e)
    print(f"  edge {e}: tails {sorted(tail)} -> head {head}")
print()

# The max-flow kernel is internal: it trusts its callers to pass valid
# heads and terminals, so it is reached here through its module.  It takes
# its sinks as a mask, one flag per vertex, and updates the heads list in
# place.  The public, checked entry is ho.min_separator, used below.
g = ho.separator.network(h)
heads = list(o.heads)
into_3 = [v == 3 for v in range(h.n)]
value, reach = ho.separator.max_flow_min_cut(g, [0], into_3, residual=heads)
after = ho.Orientation(h, heads)
print(f"max flow 0 -> 3: {value}; the orientation it leaves:")
for e in range(h.m):
    tail, head = after.hyperarc(e)
    turned = "" if head == o.heads[e] else f"   (turned from head {o.heads[e]})"
    print(f"  edge {e}: tails {sorted(tail)} -> head {head}{turned}")
print(f"vertices still reachable from 0: {sorted(reach)}")
bf_value, _, bf_minimal = ho.bf_min_separator(h, o, 0, ho.VertexSet(h.n, [3]), "out")
assert (value, ho.VertexSet(h.n, reach)) == (bf_value, bf_minimal)
print()

for s in range(h.n):
    for t in range(h.n):
        if s == t:
            continue
        sinks = ho.VertexSet(h.n, [t])
        value, side = ho.min_separator(h, o, ho.VertexSet(h.n, [s]), sinks, "out")
        bf_value, minimizers, minimal = ho.bf_min_separator(h, o, s, sinks, "out")
        assert (value, side) == (bf_value, minimal)
        tag = "" if len(minimizers) == 1 else f"   (minimal of {len(minimizers)} minimizers)"
        print(f"min out-degree separator {s} vs {t}: value {value}, side {sorted(side)}{tag}")
print()
print("every query above matched the brute-force enumeration")
print()

lam = ho.hyperarc_connectivity(h, o)
print("connectivity via separators:", lam)
print("connectivity via enumeration:", ho.bf_lambda(h, o))
