"""Experiment definitions: one function per paper table/figure.

Each function declares its app x protocol x machine-parameter matrix as
a batch of :class:`~repro.harness.parallel.SimRequest` objects, executes
the batch through a :class:`~repro.harness.parallel.SweepRunner`, and
assembles plain data structures (dicts keyed by application/mode/
parameter) that the benchmark harness and `repro.harness.figures`
render.  DESIGN.md section 4 maps experiment ids to these functions.

Every function takes an optional ``runner``; ``None`` builds a private
serial runner (in-process execution, in-memory memoization only), which
is exactly the old one-simulation-at-a-time behaviour.  Passing a shared
runner with ``jobs>1`` and/or a disk cache fans the matrix out over a
process pool and lets figures 13-16 reuse each other's default-parameter
baselines instead of recomputing them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.apps.barnes import Barnes
from repro.apps.em3d import Em3d
from repro.apps.ocean import Ocean
from repro.apps.radix import Radix
from repro.apps.tsp import Tsp
from repro.apps.water import Water
from repro.dsm.overlap import ALL_MODES
from repro.harness.parallel import SimRequest, SweepRunner
from repro.harness.runner import ProtocolConfig
from repro.hardware.params import MachineParams
from repro.stats.breakdown import Category

__all__ = [
    "APP_FACTORIES", "APP_ORDER", "MODE_ORDER", "scaled_app",
    "quick_sizes",
    "fig1_speedups", "fig2_breakdown", "fig_overlap_modes",
    "fig11_12_protocol_comparison", "fig13_messaging_overhead",
    "fig14_network_bandwidth", "fig15_memory_latency",
    "fig16_memory_bandwidth",
]

APP_FACTORIES: Dict[str, Callable[[int], object]] = {
    "TSP": Tsp,
    "Water": Water,
    "Radix": Radix,
    "Barnes": Barnes,
    "Em3d": Em3d,
    "Ocean": Ocean,
}

# The order the paper's figures list the applications.
APP_ORDER = ("TSP", "Water", "Radix", "Barnes", "Em3d", "Ocean")
MODE_ORDER = tuple(mode.name for mode in ALL_MODES)

# Problem-size knobs for quick (test) versus full (bench) runs.
_QUICK_SIZES = {
    "TSP": dict(n_cities=9, cutoff=3),
    "Water": dict(n_molecules=32, steps=1),
    "Radix": dict(n_keys=16384, radix_bits=5, key_bits=15),
    "Barnes": dict(n_bodies=64, steps=1),
    "Em3d": dict(n_nodes=2048, degree=4, iterations=2),
    "Ocean": dict(grid=34, iterations=3),
}


def quick_sizes(name: str) -> dict:
    """The quick-mode size kwargs for one application (copy)."""
    return dict(_QUICK_SIZES[name])


def scaled_app(name: str, nprocs: int, quick: bool = False):
    """Instantiate an application at full (default) or quick size."""
    factory = APP_FACTORIES[name]
    kwargs = _QUICK_SIZES[name] if quick else {}
    return factory(nprocs, **kwargs)


def _ensure_runner(runner: Optional[SweepRunner]) -> SweepRunner:
    return runner if runner is not None else SweepRunner(jobs=1)


def _request(name: str, nprocs: int, config: ProtocolConfig,
             params: Optional[MachineParams] = None,
             quick: bool = False, verify: bool = False) -> SimRequest:
    return SimRequest.for_app(name, nprocs, config, params=params,
                              quick=quick, verify=verify)


# ---------------------------------------------------------------------------
# Figure 1: Base TreadMarks speedups, 1..16 processors
# ---------------------------------------------------------------------------

def fig1_speedups(apps: Sequence[str] = APP_ORDER,
                  proc_counts: Sequence[int] = (1, 2, 4, 8, 16),
                  quick: bool = False,
                  runner: Optional[SweepRunner] = None
                  ) -> Dict[str, Dict[int, float]]:
    """Speedup over the 1-processor run, per app and processor count."""
    runner = _ensure_runner(runner)
    config = ProtocolConfig.treadmarks("Base")
    requests: List[SimRequest] = []
    for name in apps:
        requests.append(_request(name, 1, config, quick=quick))
        for n in proc_counts:
            if n == 1:
                continue
            requests.append(_request(name, n, config, quick=quick))
    results = iter(runner.run_batch(requests))

    out: Dict[str, Dict[int, float]] = {}
    for name in apps:
        serial = next(results)
        # The serial run is the normalization baseline; it only shows up
        # as a data point when the caller actually asked for 1 processor.
        out[name] = {1: 1.0} if 1 in proc_counts else {}
        for n in proc_counts:
            if n == 1:
                continue
            result = next(results)
            out[name][n] = serial.execution_cycles / result.execution_cycles
    return out


# ---------------------------------------------------------------------------
# Figure 2: Base execution-time breakdown at 16 processors
# ---------------------------------------------------------------------------

def fig2_breakdown(apps: Sequence[str] = APP_ORDER, nprocs: int = 16,
                   quick: bool = False,
                   runner: Optional[SweepRunner] = None
                   ) -> Dict[str, Dict[str, float]]:
    """Normalized category fractions plus the diff-time percentage."""
    runner = _ensure_runner(runner)
    config = ProtocolConfig.treadmarks("Base")
    results = runner.run_batch(
        [_request(name, nprocs, config, quick=quick) for name in apps])

    out: Dict[str, Dict[str, float]] = {}
    for name, result in zip(apps, results):
        row = {cat.value: result.category_fraction(cat)
               for cat in Category}
        row["diff_pct"] = 100.0 * result.diff_fraction()
        out[name] = row
    return out


# ---------------------------------------------------------------------------
# Figures 5-10: overlap modes per application
# ---------------------------------------------------------------------------

def fig_overlap_modes(app_name: str, nprocs: int = 16,
                      modes: Sequence[str] = MODE_ORDER,
                      quick: bool = False,
                      runner: Optional[SweepRunner] = None
                      ) -> Dict[str, Dict[str, float]]:
    """Per overlap mode: normalized time (vs Base) and category split."""
    runner = _ensure_runner(runner)
    results = runner.run_batch(
        [_request(app_name, nprocs, ProtocolConfig.treadmarks(mode),
                  quick=quick) for mode in modes])

    out: Dict[str, Dict[str, float]] = {}
    base_cycles = None
    for mode, result in zip(modes, results):
        if mode == "Base":
            base_cycles = result.execution_cycles
        row = {cat.value: result.category_fraction(cat)
               for cat in Category}
        row["cycles"] = result.execution_cycles
        row["normalized_pct"] = (100.0 * result.execution_cycles
                                 / (base_cycles or result.execution_cycles))
        row["diff_pct"] = 100.0 * result.diff_fraction()
        stats = result.protocol_stats
        row["prefetches"] = stats.prefetch.issued
        row["useless_pf_pct"] = 100.0 * stats.prefetch.useless_fraction()
        out[mode] = row
    return out


# ---------------------------------------------------------------------------
# Figures 11-12: overlapping TreadMarks (I+D) vs AURC vs AURC+P
# ---------------------------------------------------------------------------

def fig11_12_protocol_comparison(
        apps: Sequence[str] = APP_ORDER, nprocs: int = 16,
        quick: bool = False,
        runner: Optional[SweepRunner] = None
        ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Normalized running time (vs overlapping TreadMarks) per protocol."""
    runner = _ensure_runner(runner)
    configs = {
        "TM/I+D": ProtocolConfig.treadmarks("I+D"),
        "AURC": ProtocolConfig.aurc(),
        "AURC+P": ProtocolConfig.aurc(prefetch=True),
    }
    requests = [_request(name, nprocs, config, quick=quick)
                for name in apps for config in configs.values()]
    results = iter(runner.run_batch(requests))

    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in apps:
        rows: Dict[str, Dict[str, float]] = {}
        baseline = None
        for label in configs:
            result = next(results)
            if baseline is None:
                baseline = result.execution_cycles
            row = {cat.value: result.category_fraction(cat)
                   for cat in Category}
            row["cycles"] = result.execution_cycles
            row["normalized_pct"] = (100.0 * result.execution_cycles
                                     / baseline)
            rows[label] = row
        out[name] = rows
    return out


# ---------------------------------------------------------------------------
# Figures 13-16: sensitivity sweeps (Em3d, I+D vs AURC)
# ---------------------------------------------------------------------------

def _sweep(app_name: str, nprocs: int, param_points: Iterable,
           make_params: Callable[[object], MachineParams],
           quick: bool,
           aurc_params: Optional[Callable] = None,
           runner: Optional[SweepRunner] = None) -> Dict[str, Dict]:
    """Run TM/I+D and AURC across a parameter sweep.

    Times are normalized to each protocol's value at the *default*
    parameters, matching the paper's presentation (figures 13-16
    normalize to the previous section's results).  The two baselines
    are identical across all four sweeps, so a shared runner (or disk
    cache) computes them once for figure 13 and serves figures 14-16
    from cache.
    """
    runner = _ensure_runner(runner)
    tm_config = ProtocolConfig.treadmarks("I+D")
    aurc_config = ProtocolConfig.aurc()
    default = MachineParams()
    points = list(param_points)

    requests = [
        _request(app_name, nprocs, tm_config, params=default, quick=quick),
        _request(app_name, nprocs, aurc_config, params=default, quick=quick),
    ]
    for point in points:
        params = make_params(point)
        aurc_point_params = (aurc_params(point) if aurc_params is not None
                             else params)
        requests.append(_request(app_name, nprocs, tm_config,
                                 params=params, quick=quick))
        requests.append(_request(app_name, nprocs, aurc_config,
                                 params=aurc_point_params, quick=quick))
    results = iter(runner.run_batch(requests))

    tm_base = next(results).execution_cycles
    aurc_base = next(results).execution_cycles
    curves: Dict[str, Dict] = {"TM/I+D": {}, "AURC": {}}
    for point in points:
        curves["TM/I+D"][point] = next(results).execution_cycles / tm_base
        curves["AURC"][point] = next(results).execution_cycles / aurc_base
    return curves


def fig13_messaging_overhead(
        app_name: str = "Em3d", nprocs: int = 16,
        microseconds: Sequence[float] = (1.0, 2.0, 3.0, 4.0),
        quick: bool = False,
        aurc_full_update_overhead: bool = False,
        runner: Optional[SweepRunner] = None) -> Dict[str, Dict]:
    """Messaging-overhead sweep.  With ``aurc_full_update_overhead`` the
    AURC update messages pay the full per-message overhead instead of the
    default single cycle (the paper's pessimistic variant)."""
    def make(us: float) -> MachineParams:
        return MachineParams().with_messaging_overhead(us)

    def make_aurc(us: float) -> MachineParams:
        params = make(us)
        if aurc_full_update_overhead:
            params = params.with_aurc_full_update_overhead()
        return params

    return _sweep(app_name, nprocs, microseconds, make, quick,
                  aurc_params=make_aurc, runner=runner)


def fig14_network_bandwidth(
        app_name: str = "Em3d", nprocs: int = 16,
        bandwidths_mbs: Sequence[float] = (10, 25, 50, 100, 200),
        quick: bool = False,
        runner: Optional[SweepRunner] = None) -> Dict[str, Dict]:
    return _sweep(app_name, nprocs, bandwidths_mbs,
                  lambda mbs: MachineParams().with_network_bandwidth(mbs),
                  quick, runner=runner)


def fig15_memory_latency(
        app_name: str = "Em3d", nprocs: int = 16,
        latencies_ns: Sequence[float] = (40, 100, 150, 200),
        quick: bool = False,
        runner: Optional[SweepRunner] = None) -> Dict[str, Dict]:
    return _sweep(app_name, nprocs, latencies_ns,
                  lambda ns: MachineParams().with_memory_latency(ns),
                  quick, runner=runner)


def fig16_memory_bandwidth(
        app_name: str = "Em3d", nprocs: int = 16,
        bandwidths_mbs: Sequence[float] = (60, 80, 103, 150, 200),
        quick: bool = False,
        runner: Optional[SweepRunner] = None) -> Dict[str, Dict]:
    return _sweep(app_name, nprocs, bandwidths_mbs,
                  lambda mbs: MachineParams().with_memory_bandwidth(mbs),
                  quick, runner=runner)
