"""Water / TSP / Barnes correctness through the full stack."""

import numpy as np
import pytest

from repro.apps.barnes import Barnes, build_octree, compute_accels
from repro.apps.tsp import Tsp, held_karp
from repro.apps.water import Water
from repro.harness.runner import ProtocolConfig, run_app


def small_water(n):
    return Water(n, n_molecules=24, steps=2)


def small_tsp(n):
    return Tsp(n, n_cities=8, cutoff=3)


def small_barnes(n):
    return Barnes(n, n_bodies=48, steps=2)


APPS = {"water": small_water, "tsp": small_tsp, "barnes": small_barnes}


@pytest.mark.parametrize("app_name", list(APPS))
@pytest.mark.parametrize("mode", ["Base", "I+D", "P"])
def test_apps_verify_under_treadmarks(app_name, mode):
    app = APPS[app_name](4)
    result = run_app(app, ProtocolConfig.treadmarks(mode))
    assert result.verified


@pytest.mark.parametrize("app_name", list(APPS))
def test_apps_verify_under_aurc(app_name):
    app = APPS[app_name](4)
    result = run_app(app, ProtocolConfig.aurc())
    assert result.verified


@pytest.mark.parametrize("app_name", list(APPS))
def test_apps_verify_single_proc(app_name):
    app = APPS[app_name](1)
    result = run_app(app, ProtocolConfig.treadmarks("Base"))
    assert result.verified


def test_water_uses_locks():
    result = run_app(small_water(4), ProtocolConfig.treadmarks("Base"))
    assert result.lock_stats.acquires > 0
    assert result.lock_stats.grants_sent > 0


def test_tsp_uses_locks_heavily():
    result = run_app(small_tsp(4), ProtocolConfig.treadmarks("Base"))
    assert result.lock_stats.acquires > 10


def test_held_karp_matches_brute_force():
    import itertools
    rng = np.random.default_rng(7)
    coords = rng.uniform(0, 10, size=(6, 2))
    d = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(axis=2))
    best = min(
        sum(d[t[i], t[i + 1]] for i in range(5)) + d[t[5], t[0]]
        for t in ([0] + list(p) for p in
                  itertools.permutations(range(1, 6))))
    assert held_karp(d) == pytest.approx(best)


def test_octree_mass_conservation():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(40, 3))
    mass = rng.uniform(0.5, 1.0, size=40)
    children, com, cmass, half, n_nodes = build_octree(pos, mass)
    assert cmass[0] == pytest.approx(mass.sum())
    expected_com = (pos * mass[:, None]).sum(axis=0) / mass.sum()
    assert np.allclose(com[0], expected_com)


def test_octree_contains_every_body_exactly_once():
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(50, 3))
    mass = np.ones(50)
    children, *_ = build_octree(pos, mass)
    leaves = children[children < 0]
    bodies = sorted(-leaves - 1)
    assert bodies == list(range(50))


def test_compute_accel_theta_zero_is_exact():
    """With theta -> 0 the traversal degenerates to direct summation."""
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(20, 3))
    mass = rng.uniform(0.5, 1.5, size=20)
    children, com, cmass, half, _ = build_octree(pos, mass)
    acc, terms = compute_accels(np.arange(20), pos, mass, children, com,
                                cmass, half, theta=1e-9)
    assert terms.tolist() == [19] * 20
    direct = np.zeros(3)
    for j in range(1, 20):
        d = pos[j] - pos[0]
        d2 = (d ** 2).sum() + 0.05
        direct += mass[j] * d / (d2 * np.sqrt(d2))
    assert np.allclose(acc[0], direct)
