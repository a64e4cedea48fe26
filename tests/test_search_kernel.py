"""The residual-search kernel against the generic search it replaced.

``separator._search`` picks its direction once and runs one loop per
direction.  ``reference_search`` below is the single loop over both
directions that it replaced, and ``reference_flow`` the flow loop on top of
it, with a search for every path.  ``max_flow_min_cut`` takes the paths of
one hyperarc from a source straight to a sink in one pass before it
searches, so each flow's searches must be the reference's with its leading
one-arc hits removed, and nothing else: the same parents, the same
labelling order, the same sink hit.  No one-arc hit may follow the
reference's first longer path or failing search, and every flow's result
and residual must equal the reference's.  The property is derandomized
with a bounded example count, so each run replays the same inputs.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hyperorient import hypergraph, separator  # noqa: E402
from hyperorient.separator import _sink_mask, incidence_digraph, max_flow_min_cut  # noqa: E402

KERNEL = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def reference_search(g, heads, roots, is_sink, forward):
    """One breadth-first search from every root, stopping at the first sink:
    a vertex ``u`` fires each edge at it, and reaches that edge's head
    forward (unless ``u`` is the head) or, backward, the edge's vertices
    when ``u`` is its head."""
    parent = [None] * g.n
    for s in roots:
        parent[s] = ()
    labelled = list(roots)
    for u in labelled:
        for e in g.inc[u]:
            head = heads[e]
            if forward:
                if head == u:
                    continue
                reached = (head,)
            elif head == u:
                reached = g.members[e]
            else:
                continue
            for v in reached:
                if parent[v] is None:
                    parent[v] = (e, u)
                    if is_sink[v]:
                        return parent, labelled, v
                    labelled.append(v)
    return parent, labelled, -1


def reference_flow(g, roots, sinks, limit, residual, forward, searches):
    """The flow loop over :func:`reference_search`, appending each search's
    result to ``searches``."""
    is_sink = [False] * g.n
    for t in sinks:
        is_sink[t] = True
    flow = 0
    while limit is None or flow < limit:
        parent, labelled, hit = found = reference_search(g, residual, roots, is_sink, forward)
        searches.append(found)
        if hit < 0:
            return flow, frozenset(labelled)
        v = hit
        while parent[v]:
            e, u = parent[v]
            residual[e] = u if forward else v
            v = u
        flow += 1
    return flow, None


@st.composite
def flows(draw):
    """A hypergraph on at most 8 vertices, a heads list for it, and one to
    three flows to run in turn on that one heads list: disjoint sources and
    sinks, a direction and an optional limit."""
    n = draw(st.integers(2, 8))
    edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=min(n, 4)).map(sorted)
    edges = draw(st.lists(edge, min_size=1, max_size=10))
    heads = [draw(st.sampled_from(e)) for e in edges]
    query = st.tuples(
        st.permutations(range(n)),
        st.integers(1, n - 1),
        st.integers(1, n - 1),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 3)),
    )
    queries = [
        (order[:a], order[a:][:b], forward, limit)
        for order, a, b, forward, limit in draw(st.lists(query, min_size=1, max_size=3))
    ]
    return n, edges, heads, queries


def one_arc(found):
    """Whether a search's path is one hyperarc from a root to a sink."""
    parent, _, hit = found
    return hit >= 0 and parent[parent[hit][1]] == ()


def leading_one_arc_hits(searches):
    """How many of a flow's searches, from the first, found one-arc paths."""
    lead = 0
    while lead < len(searches) and one_arc(searches[lead]):
        lead += 1
    return lead


@KERNEL
@given(flows())
def test_the_kernel_matches_the_reference(case):
    n, edges, heads, queries = case
    g = incidence_digraph(hypergraph(n, edges))
    kernel = separator._search
    got = []

    def recorded(*args):
        found = kernel(*args)
        got.append(found)
        return found

    residual, reference = list(heads), list(heads)
    with mock.patch.object(separator, "_search", recorded):
        for roots, sinks, forward, limit in queries:
            got.clear()
            expected = []
            result = max_flow_min_cut(g, roots, _sink_mask(n, sinks), limit, residual=residual, forward=forward)
            assert result == reference_flow(g, roots, sinks, limit, reference, forward, expected)
            assert residual == reference
            lead = leading_one_arc_hits(expected)
            assert not any(one_arc(found) for found in expected[lead:])
            assert got == expected[lead:]


@pytest.mark.parametrize("forward", [True, False])
def test_one_arc_paths_run_no_search(forward):
    """Three hyperarcs from source 0 straight to the sinks 1, 2 and 3 (run
    backward, headed at 0): capped at three the flow runs no search, and
    uncapped only the one that fails and labels the source side."""
    g = incidence_digraph(hypergraph(5, [(0, 1), (0, 2, 4), (0, 3), (1, 4)]))
    heads = [1, 2, 3, 4] if forward else [0, 0, 0, 4]
    for limit, searches, reach in ((3, 0, None), (None, 1, frozenset({0}))):
        residual = list(heads)
        with mock.patch.object(separator, "_search", wraps=separator._search) as search:
            into = _sink_mask(g.n, [1, 2, 3])
            assert max_flow_min_cut(g, [0], into, limit, residual=residual, forward=forward) == (3, reach)
        assert search.call_count == searches
        assert residual == ([0, 0, 0, 4] if forward else [1, 2, 3, 4])


def test_the_property_covers_both_directions_and_limits():
    seen = set()

    @KERNEL
    @given(flows())
    def collect(case):
        seen.update((forward, limit is None) for _, _, forward, limit in case[3])

    collect()
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_the_property_sees_one_arc_hits_before_longer_paths():
    """Some flows start with one-arc paths and go on to longer ones, some
    take one-arc paths alone, and some find no path at all."""
    seen = set()

    @KERNEL
    @given(flows())
    def collect(case):
        n, edges, heads, queries = case
        g = incidence_digraph(hypergraph(n, edges))
        reference = list(heads)
        for roots, sinks, forward, limit in queries:
            searches = []
            reference_flow(g, roots, sinks, limit, reference, forward, searches)
            lead = leading_one_arc_hits(searches)
            seen.add((lead > 0, any(hit >= 0 for _, _, hit in searches[lead:])))

    collect()
    assert {(True, True), (True, False), (False, False)} <= seen
