"""The batched Barnes / TSP host kernels against their scalar oracles.

What the kernels count is simulated compute (``api.compute``), so the
counts must equal the scalar code's exactly; the 16-processor pins at
the end are the same contract seen from outside, at the sizes the repo
benchmark runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.barnes import Barnes, build_octree, compute_accels
from repro.apps.tsp import Tsp
from repro.harness.runner import ProtocolConfig, run_app
from tests.apps.oracles import direct_accel, numpy_solve_tail, scalar_accel

THETAS = (0.0, 0.3, 0.6, 1.0)


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    mass = rng.uniform(0.5, 1.5, size=n)
    return pos, mass, build_octree(pos, mass)[:4]


# -- Barnes -------------------------------------------------------------------

@given(n=st.integers(1, 128), seed=st.integers(0, 2 ** 32 - 1),
       theta=st.sampled_from(THETAS), data=st.data())
@settings(max_examples=40, deadline=None)
def test_batched_traversal_matches_scalar_oracle(n, seed, theta, data):
    pos, mass, tree = random_system(n, seed)
    acc, terms = compute_accels(np.arange(n), pos, mass, *tree, theta)
    assert acc.shape == (n, 3) and terms.shape == (n,)

    oracle = [scalar_accel(b, pos, mass, *tree, theta) for b in range(n)]
    assert terms.tolist() == [t for _acc, t in oracle]
    want = np.array([a for a, _t in oracle])
    # Same terms, summed level by level instead of depth first: 1e-12
    # of the largest component is ~4 decimal orders above what a few
    # hundred reordered double additions can move.
    assert np.allclose(acc, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    # Batch independence: any block is bitwise the all-bodies rows.
    cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=6)))
    for lo, hi in zip([0] + cuts, cuts + [n]):
        block_acc, block_terms = compute_accels(
            np.arange(lo, hi), pos, mass, *tree, theta)
        assert block_acc.tobytes() == acc[lo:hi].tobytes()
        assert block_terms.tolist() == terms[lo:hi].tolist()

    if theta == 0.0:
        assert terms.tolist() == [n - 1] * n
        direct = np.array([direct_accel(b, pos, mass) for b in range(n)])
        assert np.allclose(acc, direct, rtol=1e-12,
                           atol=1e-12 * max(np.abs(direct).max(), 1.0))


def test_batched_traversal_spans_internal_chunks(monkeypatch):
    """A batch longer than the chunk gives the rows of smaller batches."""
    import repro.apps.barnes as barnes
    pos, mass, tree = random_system(50, 11)
    whole = compute_accels(np.arange(50), pos, mass, *tree)
    monkeypatch.setattr(barnes, "_CHUNK", 7)
    acc, terms = compute_accels(np.arange(50), pos, mass, *tree)
    assert acc.tobytes() == whole[0].tobytes()
    assert terms.tolist() == whole[1].tolist()


def test_batched_traversal_edge_inputs():
    pos, mass, tree = random_system(9, 2)
    acc, terms = compute_accels(np.arange(0), pos, mass, *tree)
    assert acc.shape == (0, 3) and terms.shape == (0,)
    # Any index order, repeats included: rows follow ``bodies``.
    acc, terms = compute_accels([4, 1, 4], pos, mass, *tree)
    assert acc[0].tobytes() == acc[2].tobytes()
    want, want_terms = scalar_accel(1, pos, mass, *tree, 0.6)
    assert terms[1] == want_terms and np.allclose(acc[1], want, rtol=1e-12)
    # One body: the root cell is the body itself, a zero-length term.
    pos, mass, tree = random_system(1, 3)
    acc, terms = compute_accels(np.arange(1), pos, mass, *tree)
    assert acc.tolist() == [[0.0, 0.0, 0.0]]
    assert terms.tolist() == [scalar_accel(0, pos, mass, *tree, 0.6)[1]]


# -- TSP ----------------------------------------------------------------------

@given(n_cities=st.integers(5, 9), seed=st.integers(0, 2 ** 16),
       slack=st.floats(0.6, 1.4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_solve_tail_matches_numpy_recursion(n_cities, seed, slack, data):
    app = Tsp(2, n_cities=n_cities, seed=seed)
    depth = data.draw(st.integers(0, n_cities - 1))
    path = [0] + data.draw(st.permutations(range(1, n_cities)))[:depth]
    cost = sum(app.dist[a, b] for a, b in zip(path, path[1:]))
    # Bounds from hopeless (the prefix alone exceeds it) to loose.
    bound = slack * app.greedy_bound()

    best, visited = app._solve_tail(path, cost, bound)
    want_best, want_visited = numpy_solve_tail(app.dist, path, cost, bound)
    assert type(best) is float
    assert (best, visited) == (float(want_best), want_visited)
    assert app._solve_tail(path, np.float64(cost),
                           np.float64(bound)) == (best, visited)


# -- what the kernels charge, seen as cycles at the benchmark's sizes ---------

BENCHMARK_CYCLES = {
    "Barnes": (lambda: Barnes(16, n_bodies=320, steps=1),
               (1207740.0, 1100999.234375, 864221.0)),
    "TSP": (lambda: Tsp(16, n_cities=10, cutoff=2),
            (4835608.0, 4805014.703125, 5217370.0)),
}
CONFIGS = (ProtocolConfig.treadmarks("Base"),
           ProtocolConfig.treadmarks("I+P+D"), ProtocolConfig.aurc())


@pytest.mark.parametrize("app_name", list(BENCHMARK_CYCLES))
def test_sixteen_processor_cycles_at_benchmark_sizes(app_name):
    """The goldens stop at 4 processors and quick sizes; a kernel that
    moved ``terms``/``visited`` only at 16 would otherwise first show as
    a ``differs`` in the repo benchmark's exact-cycles check."""
    make, expected = BENCHMARK_CYCLES[app_name]
    for config, cycles in zip(CONFIGS, expected):
        result = run_app(make(), config, verify=True)
        assert result.verified
        assert result.execution_cycles == cycles, config
