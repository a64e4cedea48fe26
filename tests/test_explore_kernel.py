"""The path search's exploration against the rescanning loop it replaced.

``pathsearch._explore`` keeps a mask of candidate edge ids, the hyperarcs
the explored vertices can fire, and pops the lowest.  ``reference_explore``
below is the loop it replaced, which scans every hyperarc again from edge 0
after each one it takes.  Both must give the same explored set, final
window and links, forward and backward, with a fixed window and with one
that shrinks.  The reference keeps its fixed-window mode for an empty
shrink map, and ``_explore`` gets a full set for every vertex there, a
shrink that never fires, so the property also checks that such a shrink
keeps the window fixed.  The property is derandomized with a bounded example count,
so each run replays the same inputs.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hyperorient import Orientation, VertexSet, hypergraph  # noqa: E402
from hyperorient.pathsearch import _explore  # noqa: E402

EXPLORE = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def reference_explore(o, start, window, forward, shrink=()):
    """The smallest edge id that yields a new vertex, found by a scan of
    every hyperarc from edge 0, after each hyperarc taken."""
    edges = o.hypergraph.edges
    tails = [edges[e].mask & ~(1 << v) for e, v in enumerate(o.heads)]
    explored = 1 << start
    links = {}
    while True:
        for e, v in enumerate(o.heads):
            if forward:
                new = 1 << v & window & ~explored if tails[e] & explored else 0
            else:
                new = tails[e] & window & ~explored if explored >> v & 1 else 0
            if new:
                break
        else:
            return explored, window, links
        reach = tails[e] & explored
        via = (reach & -reach).bit_length() - 1 if forward else v
        while new:
            bit = new & -new
            u = bit.bit_length() - 1
            explored |= bit
            links[u] = (e, via)
            if shrink:
                q = shrink[u].mask
                if q != window and q & ~window == 0:
                    window = q
            new &= window & ~explored


@st.composite
def explorations(draw):
    """A hypergraph on at most 8 vertices with an orientation, a start
    vertex, a window that holds it, a direction, and either no shrink map
    or one vertex set per vertex."""
    n = draw(st.integers(2, 8))
    edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=min(n, 4)).map(sorted)
    edges = draw(st.lists(edge, min_size=1, max_size=12))
    heads = tuple(draw(st.sampled_from(e)) for e in edges)
    h = hypergraph(n, edges)
    start = draw(st.integers(0, n - 1))
    window = draw(st.integers(0, (1 << n) - 1)) | 1 << start
    masks = st.integers(0, (1 << n) - 1)
    shrink = draw(st.one_of(st.just(()), st.tuples(*[masks] * n)))
    return Orientation(h, heads), start, window, draw(st.booleans()), tuple(VertexSet.from_mask(n, q) for q in shrink)


@EXPLORE
@given(explorations())
def test_the_exploration_matches_the_rescan(case):
    o, start, window, forward, shrink = case
    n = o.hypergraph.n
    full_if_empty = shrink or (VertexSet.full(n),) * n
    assert _explore(o, start, window, forward, full_if_empty) == reference_explore(o, start, window, forward, shrink)


def test_the_property_covers_both_directions_and_shrinking():
    seen = set()

    @EXPLORE
    @given(explorations())
    def collect(case):
        o, start, window, forward, shrink = case
        final = reference_explore(o, start, window, forward, shrink)[1]
        seen.add((forward, bool(shrink), final != window))

    collect()
    for forward in (True, False):
        assert {(forward, False, False), (forward, True, False), (forward, True, True)} <= seen
