"""The bit-parallel ``Graph.diameter`` and the vectorized BFS gather.

``diameter()`` is pinned to the per-vertex BFS oracle it replaced on
hypothesis-drawn graphs (connected and not, with isolated vertices, sizes
crossing the 64-bit word edges), and on graphs larger than one
1024-source block.  ``bfs_distances`` is pinned to a copy of its former
list-comprehension gather.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.base import Graph
from repro.graphs.hypercube import hypercube
from repro.types import InvalidParameterError

COMMON = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

DISCONNECTED = "disconnected"


def oracle_diameter(g: Graph) -> int | str:
    """Max of ``bfs_distances(u)`` over all u, or the disconnected marker."""
    best = 0
    for u in range(g.n_vertices):
        dist = g.bfs_distances(u)
        if (dist == -1).any():
            return DISCONNECTED
        best = max(best, int(dist.max()))
    return best


def diameter_or_marker(g: Graph) -> int | str:
    try:
        return g.diameter()
    except InvalidParameterError as exc:
        assert str(exc) == "diameter undefined: graph disconnected"
        return DISCONNECTED


def listcomp_bfs_distances(g: Graph, source: int) -> np.ndarray:
    """The former ``bfs_distances``: a Python listcomp frontier gather."""
    indptr, indices = g.csr_arrays()
    dist = np.full(g.n_vertices, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        counts = ends - starts
        if counts.sum() == 0:
            break
        gather = np.concatenate([indices[s:e] for s, e in zip(starts, ends)])
        fresh = gather[dist[gather] == -1]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = d
        frontier = fresh
    return dist


@st.composite
def graphs(draw, max_n=200):
    """Random graphs: an optional random spanning tree (connected unless
    isolated vertices are added), extra random edges, up to three isolated
    vertices, and a random relabelling."""
    n = draw(st.integers(0, max_n))
    edges = []
    if n >= 2 and draw(st.booleans()):
        parents = draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
        edges += [(i, p % i) for i, p in zip(range(1, n), parents)]
    if n >= 2:
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges += [(u, v) for u, v in extra if u != v]
    total = n + draw(st.integers(0, 3))
    perm = draw(st.permutations(range(total)))
    return Graph(total, [(perm[u], perm[v]) for u, v in edges]).freeze()


class TestDiameterProperty:
    @COMMON
    @given(graphs())
    def test_matches_all_sources_bfs_oracle(self, g):
        assert diameter_or_marker(g) == oracle_diameter(g)

    @COMMON
    @given(st.integers(1, 200), st.data())
    def test_connected_matches_oracle(self, n, data):
        # a random tree plus a few chords: always connected, so every draw
        # checks the level count rather than the disconnected branch
        parents = data.draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
        edges = [(i, p % i) for i, p in zip(range(1, n), parents)]
        chords = data.draw(st.lists(st.integers(0, n * n - 1), max_size=n // 4))
        edges += [(c // n, c % n) for c in chords if c // n != c % n]
        g = Graph(n, edges).freeze()
        expected = oracle_diameter(g)
        assert expected != DISCONNECTED
        assert g.diameter() == expected


class TestDiameterEdgeCases:
    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_graphs(self, n):
        assert Graph(n).freeze().diameter() == 0

    @pytest.mark.parametrize(
        "n, edges",
        [
            (2, []),
            (3, [(0, 1)]),  # isolated last vertex: empty final CSR segment
            (3, [(1, 2)]),  # isolated first vertex
            (4, [(0, 1), (2, 3)]),  # two components, no isolated vertex
        ],
    )
    def test_disconnected_raises(self, n, edges):
        with pytest.raises(InvalidParameterError, match="graph disconnected"):
            Graph(n, edges).freeze().diameter()

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_paths_at_word_edges(self, n):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)]).freeze()
        assert g.diameter() == n - 1


class TestDiameterBeyondOneBlock:
    def test_hypercube_11(self):
        assert hypercube(11).diameter() == 11

    def test_diameter_set_by_second_block_source(self):
        # a 1100-vertex path whose two endpoints, 1024 and 1099, both lie in
        # the second block of 1024 sources; every first-block source is
        # interior, the farthest out being vertex 0 (next to endpoint 1024)
        order = [1024, *range(1024), *range(1025, 1100)]
        g = Graph(1100, list(zip(order, order[1:]))).freeze()
        assert g.eccentricity(0) == 1098
        assert g.diameter() == 1099


class TestBfsGatherPinned:
    @COMMON
    @given(graphs(max_n=120), st.data())
    def test_matches_listcomp_gather(self, g, data):
        if g.n_vertices == 0:
            return
        source = data.draw(st.integers(0, g.n_vertices - 1))
        np.testing.assert_array_equal(
            g.bfs_distances(source), listcomp_bfs_distances(g, source)
        )

    @pytest.mark.parametrize("n", [4, 8])
    def test_hypercube_every_source(self, n):
        g = hypercube(n)
        for u in range(g.n_vertices):
            np.testing.assert_array_equal(
                g.bfs_distances(u), listcomp_bfs_distances(g, u)
            )
