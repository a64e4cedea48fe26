"""Shared instance corpora for the test suite, and an independent
network-flow reference.

Everything is seeded, so every run sees exactly the same instances.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

from hyperorient import (
    GenSpec,
    Hypergraph,
    Orientation,
    VertexSet,
    gen_instance,
    gen_orientation,
    hypergraph,
    reorient,
)
from hyperorient.pathsearch import _explore


def vs(n, members):
    return VertexSet(n, members)


def random_instance(rng: random.Random, n_max=6, m_max=6, size_max=3, m_min=1):
    """One random directed hypergraph (hypergraph plus orientation)."""
    n = rng.randint(2, n_max)
    m = rng.randint(m_min, m_max)
    edges = []
    for _ in range(m):
        size = rng.randint(2, min(size_max, n))
        edges.append(rng.sample(range(n), size))
    h = hypergraph(n, edges)
    o = Orientation(h, tuple(rng.choice(sorted(e)) for e in h.edges))
    return h, o


def random_instances(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_instance(rng, **kwargs) for _ in range(count)]


def walk_states(spec, mode, seed, steps):
    """An orientation of ``gen_instance(spec)`` (``mode`` start) and
    ``steps`` seeded single-hyperarc reorientations from it."""
    h = gen_instance(spec)
    o = gen_orientation(h, seed=seed, mode=mode)
    rng = random.Random(seed)
    states = [o]
    for _ in range(steps):
        e = rng.randrange(h.m)
        o = reorient(o, e, rng.choice([x for x in h.edges[e] if x != o.heads[e]]))
        states.append(o)
    return h, states


def cyclic_orientation(h, k):
    """The orientation of ``gen_instance(GenSpec(k=k, ...))`` that walks
    each of its ``k`` spanning cycles (its first ``k * n`` edges) around
    itself: edge ``i`` of a cycle points to the vertex it shares with edge
    ``i + 1``.  A directed spanning cycle leaves every proper vertex set,
    so the connectivity is at least ``k``.  Every other edge points to its
    smallest vertex."""
    n, heads = h.n, []
    for c in range(k):
        for i in range(n):
            shared = h.edges[c * n + i].mask & h.edges[c * n + (i + 1) % n].mask
            heads.append(shared.bit_length() - 1)
    heads.extend(min(e) for e in h.edges[k * n :])
    return Orientation(h, tuple(heads))


def flipped(o, rng):
    """``o`` after 1 to 4 random head changes drawn from ``rng``."""
    h = o.hypergraph
    for _ in range(rng.randint(1, 4)):
        e = rng.randrange(h.m)
        o = reorient(o, e, rng.choice([v for v in h.edges[e] if v != o.heads[e]]))
    return o


def benchmark_like_orientations(seed, count, n=64):
    """``count`` orientations of one hypergraph made like those of the
    ``query-families`` benchmark: n=64 by default, k=2, ``n // 2`` extra
    edges of up to six vertices, the cyclic orientation after 1 to 4
    seeded head changes."""
    h = gen_instance(GenSpec(n=n, k=2, extra_edges=n // 2, max_edge_size=6, seed=seed))
    base, rng = cyclic_orientation(h, 2), random.Random(seed)
    return h, [flipped(base, rng) for _ in range(count)]


def search_labels(h, o, forward):
    """The vertices one breadth-first search from vertex 0 over ``o``'s
    heads labels, in order, written out independently of ``separator``.
    ``forward``, each vertex in queue order takes its edges in index order,
    and an edge whose head is not yet labelled labels that head; backward,
    each edge headed at the vertex labels its unlabelled members in
    ascending order."""
    seen, order = {0}, [0]
    for u in order:
        for e, edge in enumerate(h.edges):
            if u not in edge:
                continue
            head = o.heads[e]
            for v in [head] if forward else list(edge) if head == u else []:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
    return order


def pass_order(h, o, forward):
    """The order of the sink-sequence pass whose flows run ``forward``:
    what :func:`search_labels` labels, run the other way, then the
    vertices it misses, in index order."""
    order = search_labels(h, o, not forward)
    return order + sorted(set(range(h.n)) - set(order))


def all_hypergraphs(n_values=(2, 3, 4), m_max=4, sizes=(2, 3)):
    """Every hypergraph with the given vertex counts, up to ``m_max`` edges
    drawn (with repetition) from the size-2/3 subsets, including edgeless."""
    for n in n_values:
        candidates = []
        for size in sizes:
            if size <= n:
                candidates.extend(combinations(range(n), size))
        for m in range(0, m_max + 1):
            for combo in combinations_with_replacement(candidates, m):
                yield hypergraph(n, combo)


def all_orientations(h: Hypergraph):
    def rec(e, heads):
        if e == h.m:
            yield Orientation(h, tuple(heads))
            return
        for v in h.edges[e]:
            heads.append(v)
            yield from rec(e + 1, heads)
            heads.pop()

    yield from rec(0, [])


def all_proper_subsets(n):
    return (VertexSet.from_mask(n, m) for m in range(1, (1 << n) - 1))


# Above the brute-force oracles' reach: an independent max flow (networkx's
# default preflow-push) on the incidence-digraph reduction, with the
# residual-reachable side computed here from its flow.


def nx_incidence(nx, h, o, reverse):
    g = nx.DiGraph()
    g.add_nodes_from(range(h.n + h.m))
    for e in range(h.m):
        w = h.n + e
        g.add_edges_from((x, w) for x in o.tail(e))  # no capacity: unbounded
        g.add_edge(w, o.heads[e], capacity=1)
    return g.reverse(copy=True) if reverse else g


def nx_min_side(nx, g, sources, sinks, n):
    """Max flow value between vertex sets and the vertices reachable from
    the sources in its residual network."""
    g = g.copy()
    g.add_edges_from(("s", x) for x in sources)
    g.add_edges_from((y, "t") for y in sinks)
    value, flow = nx.maximum_flow(g, "s", "t")
    seen, stack = {"s"}, ["s"]
    while stack:
        u = stack.pop()
        forward = (v for v, d in g[u].items() if flow[u][v] < d.get("capacity", float("inf")))
        backward = (v for v in g.predecessors(u) if flow[v][u] > 0)
        for v in (*forward, *backward):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return value, VertexSet(n, [v for v in seen if isinstance(v, int) and v < n])


def explores_all_of(o, v, region, forward):
    """Whether the path search's exploration from ``v``, with its window
    fixed at ``region``, labels all of it.  A full-set shrink never fires,
    so the window stays fixed."""
    n = o.hypergraph.n
    explored, _, _ = _explore(o, v, region.mask, forward, (VertexSet.full(n),) * n)
    return region.mask & ~explored == 0
