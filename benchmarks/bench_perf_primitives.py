"""Raw performance benchmarks for the library's primitives.

Not tied to a paper artifact: these watch the hot paths (construction,
scheme generation, validation — reference and bitset fast path — BFS,
exact diameter, max-flow) so performance regressions are visible in CI.
Sizes are chosen to run in milliseconds; the CI smoke pass shrinks them
further via ``REPRO_BENCH_N``.
"""

import os

import pytest

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.core.params import theorem7_params
from repro.flows.paths import round_packing_bound
from repro.graphs.hypercube import hypercube
from repro.model.validator import validate_broadcast
from repro.model.validator_fast import FastValidator, validate_broadcast_fast
from repro.schedulers.greedy import heuristic_line_broadcast
from repro.graphs.trees import balanced_ternary_core_tree

# Primary workload size (hypercube dimension); REPRO_BENCH_N=10 gives the
# CI smoke pass a ~4x cheaper run with identical code paths.
N = int(os.environ.get("REPRO_BENCH_N", "12"))
M = max(1, N // 3)


def test_perf_construct_base(benchmark):
    g = benchmark(lambda: construct_base(N, M).graph)
    assert g.n_vertices == 1 << N


def test_perf_construct_k4(benchmark):
    thresholds = theorem7_params(4, N)
    g = benchmark(lambda: construct(4, N, thresholds).graph)
    assert g.n_vertices == 1 << N


def test_perf_hypercube(benchmark):
    g = benchmark(lambda: hypercube(N))
    assert g.n_edges == N * (1 << (N - 1))


def test_perf_broadcast_schedule(benchmark):
    sh = construct_base(N, M)
    _ = sh.graph  # materialize outside the timer
    sched = benchmark(lambda: broadcast_schedule(sh, 0))
    assert sched.num_calls == (1 << N) - 1


def test_perf_validate_reference(benchmark):
    sh = construct_base(N, M)
    g = sh.graph
    sched = broadcast_schedule(sh, 0)
    rep = benchmark(lambda: validate_broadcast(g, sched, 2))
    assert rep.ok


def test_perf_validate_fast_warm(benchmark):
    """The bitset fast path with the per-graph setup amortized — the
    configuration the sweep experiments use (many schedules per graph)."""
    sh = construct_base(N, M)
    g = sh.graph
    sched = broadcast_schedule(sh, 0)
    validator = FastValidator(g)
    rep = benchmark(lambda: validator.validate(sched, 2))
    assert rep.ok


def test_perf_validate_fast_cold(benchmark):
    """The bitset fast path including FastValidator construction."""
    sh = construct_base(N, M)
    g = sh.graph
    sched = broadcast_schedule(sh, 0)
    rep = benchmark(lambda: validate_broadcast_fast(g, sched, 2))
    assert rep.ok


def test_perf_bfs_sweep(benchmark):
    g = hypercube(N)
    dist = benchmark(lambda: g.bfs_distances(0))
    assert int(dist.max()) == N


def test_perf_diameter(benchmark):
    g = hypercube(N)
    g.csr_arrays()  # materialize the CSR cache outside the timer
    assert benchmark(g.diameter) == N


def test_perf_round_packing_flow(benchmark):
    g = hypercube(8)
    informed = set(range(0, 256, 16))
    value = benchmark(lambda: round_packing_bound(g, set(informed)))
    assert value == len(informed)


@pytest.mark.parametrize("h", [4])
def test_perf_heuristic_tree_broadcast(benchmark, h):
    g = balanced_ternary_core_tree(h)
    sched = benchmark.pedantic(
        lambda: heuristic_line_broadcast(g, 0, 2 * h, restarts=100),
        rounds=1,
        iterations=1,
    )
    assert sched is not None
