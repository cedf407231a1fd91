"""Structural statistics reported in the experiment tables.

Everything here is a pure function of a :class:`repro.graphs.base.Graph`.
The experiment harness (``repro.analysis``) calls these to build the
degree/diameter comparison tables (E07, E10, E13, E14).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.base import Graph

__all__ = ["GraphStats", "graph_stats", "is_regular", "is_vertex_transitive_sample"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a graph as reported in the tables."""

    n_vertices: int
    n_edges: int
    max_degree: int
    min_degree: int
    mean_degree: float
    diameter: int | None  # None when skipped for size
    connected: bool

    def as_row(self) -> dict[str, object]:
        return {
            "N": self.n_vertices,
            "|E|": self.n_edges,
            "Δ": self.max_degree,
            "δ": self.min_degree,
            "avg deg": round(self.mean_degree, 3),
            "diam": self.diameter if self.diameter is not None else "-",
            "conn": self.connected,
        }


def graph_stats(
    g: Graph, *, with_diameter: bool = True, diameter_cap: int = 1 << 14
) -> GraphStats:
    """Compute :class:`GraphStats`; skips the diameter above the cap.

    The exact diameter costs O(D · E · N/64) word operations (see
    :meth:`Graph.diameter`), so it is still the expensive field.
    """
    n = g.n_vertices
    connected = g.is_connected()
    diameter: int | None = None
    if with_diameter and connected and n <= diameter_cap:
        diameter = g.diameter()
    mean = (2.0 * g.n_edges / n) if n else 0.0
    return GraphStats(
        n_vertices=n,
        n_edges=g.n_edges,
        max_degree=g.max_degree(),
        min_degree=g.min_degree(),
        mean_degree=mean,
        diameter=diameter,
        connected=connected,
    )


def is_regular(g: Graph) -> bool:
    """True iff every vertex has the same degree."""
    if g.n_vertices == 0:
        return True
    return g.max_degree() == g.min_degree()


def is_vertex_transitive_sample(g: Graph, sample: int = 8) -> bool:
    """A cheap *necessary* condition for vertex transitivity: the sampled
    vertices all have identical degree and eccentricity.  Used only as a
    sanity check on the classic topologies; not a proof of transitivity.
    """
    if g.n_vertices == 0:
        return True
    idx = range(0, g.n_vertices, max(1, g.n_vertices // sample))
    degs = {g.degree(v) for v in idx}
    if len(degs) != 1:
        return False
    eccs = {g.eccentricity(v) for v in idx}
    return len(eccs) == 1
