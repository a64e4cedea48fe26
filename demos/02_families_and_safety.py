"""Tour of the cut families behind the augmentation.

On a generated instance we print the tight families, the per-vertex
minimal tight sets, the search regions, and which vertices are safe
endpoints -- the vertices a reorientation path may start or end at without
breaking any cut.
"""

import hyperorient as ho

h = ho.gen_instance(ho.GenSpec(n=6, k=2, extra_edges=2, max_edge_size=3, seed=12))
o = ho.gen_orientation(h, seed=5)

print("instance:", h)
print("heads:", o.heads)
lam = ho.hyperarc_connectivity(h, o)
print("connectivity:", lam)
print()

fam = ho.compute_families(h, o)


def show(name, sets):
    print(f"{name}: " + " ".join("{" + ",".join(map(str, s)) + "}" for s in sets))


show("m_minus (minimal in-tight)", fam.m_minus)
show("m_plus  (minimal out-tight)", fam.m_plus)
show("m_all", fam.m_all)
show("r_family (search regions)", fam.r_family)
print()

print("per-vertex minimal tight sets:")
for v in range(h.n):
    qm = "{" + ",".join(map(str, fam.q_minus[v])) + "}"
    qp = "{" + ",".join(map(str, fam.q_plus[v])) + "}"
    print(f"  vertex {v}: q_minus {qm:12} q_plus {qp}")
print()

print("safe endpoints:")
for s_set in fam.m_minus:
    safe = [u for u in s_set if ho.is_safe_source(h, o, fam, s_set, u)]
    print(f"  sources in {sorted(s_set)}: {safe}")
for t_set in fam.m_plus:
    safe = [u for u in t_set if ho.is_safe_sink(h, o, fam, t_set, u)]
    print(f"  sinks   in {sorted(t_set)}: {safe}")
print()

# the polynomial tests agree with the literal definition
for s_set in fam.m_minus:
    for u in s_set:
        assert ho.is_safe_source(h, o, fam, s_set, u) == ho.bf_safe_source(h, o, fam, s_set, u)
print("polynomial safe tests match the brute-force definition here")

print()
feasible, witness = ho.bf_partition_connected(h, fam.k + 1)
if not feasible:
    # safe endpoints are only guaranteed to exist one level below what the
    # hypergraph supports; this orientation is already at the ceiling
    print(
        f"no admissible path search at level {fam.k}: the hypergraph is not "
        f"({fam.k + 1},{fam.k + 1})-partition-connected, witness {witness}"
    )
else:
    region = fam.r_family[0]
    branch_in = region.is_full or ho.is_in_tight(h, o, fam.k, region)
    search = ho.admissible_path_in_tminus if branch_in else ho.admissible_path_in_tplus
    res = search(h, o, fam, region)
    print(
        f"admissible path in region {sorted(region)}: "
        f"{' -> '.join(map(str, ho.trim(h, res.path)))}"
        f"   (safe source {res.source}, safe sink {res.sink})"
    )

print()
print("one level down the search is always available:")
o_low = ho.gen_orientation(h, mode="min-head")
fam_low = ho.compute_families(h, o_low)
for side, name, members in (("out", "source", fam_low.m_minus), ("in", "sink", fam_low.m_plus)):
    for x in members:
        print(f"  smallest safe {name} of {sorted(x)}: {ho.find_safe_endpoint(h, o_low, fam_low, x, side)}")
region = fam_low.r_family[0]
branch_in = region.is_full or ho.is_in_tight(h, o_low, fam_low.k, region)
search = ho.admissible_path_in_tminus if branch_in else ho.admissible_path_in_tplus
res = search(h, o_low, fam_low, region)
print(
    f"  level {fam_low.k}, region {sorted(region)}: "
    f"path {' -> '.join(map(str, ho.trim(h, res.path)))}"
    f"   (safe source {res.source}, safe sink {res.sink})"
)
