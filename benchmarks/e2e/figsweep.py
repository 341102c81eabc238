"""``figsweep``: figures 13-16 through ``SweepRunner`` and the store.

One pass regenerates the four sensitivity figures three ways: cold with
``jobs=1`` into a fresh store, again from that store through new
runners (every request a disk hit), and cold into a second fresh store
through the process pool.  The first is almost all simulator, the
second all fingerprint and store read, the third adds pool start-up and
waits for the slowest of ``workers`` parallel parts.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List

from benchmarks.e2e.core import Pass, Workload
from repro.harness import experiments
from repro.harness.parallel import ResultCache, SweepRunner

__all__ = ["FigSweep"]

# (figure function, keyword of its sweep points, the paper's points)
FIGURES = (
    (experiments.fig13_messaging_overhead, "microseconds",
     (1.0, 2.0, 3.0, 4.0)),
    (experiments.fig14_network_bandwidth, "bandwidths_mbs",
     (10, 25, 50, 100, 200)),
    (experiments.fig15_memory_latency, "latencies_ns",
     (40, 100, 150, 200)),
    (experiments.fig16_memory_bandwidth, "bandwidths_mbs",
     (60, 80, 103, 150, 200)),
)
WARM_REPEATS = 50


class FigSweep(Workload):
    name = "figsweep"
    imports = ("repro.harness.experiments",)

    def __init__(self, ctx):
        super().__init__(ctx)
        self.nprocs = 4 if ctx.smoke else 16
        self.warm_repeats = 5 if ctx.smoke else WARM_REPEATS
        # Seed 0 sweeps the paper's points; another seed moves every
        # point up by 0.5 to 2 %, which changes the machine simulated
        # and hardly changes the work.  Always up and never by less, so
        # that the same points stop coinciding with the default machine
        # at every such seed and the number of simulations is the same.
        rng = random.Random(ctx.seed)
        self.figures = []
        for fn, keyword, points in FIGURES:
            if ctx.seed:
                points = tuple(round(p * rng.uniform(1.005, 1.02), 4)
                               for p in points)
            self.figures.append((fn, {keyword: points}))

    def _sweep(self, runner: SweepRunner, figures=None) -> list:
        return [fn(nprocs=self.nprocs, quick=True, runner=runner, **kw)
                for fn, kw in figures or self.figures]

    def prepare(self):
        return {"cold": self.ctx.mkdtemp("sweep-cold-"),
                "pool": self.ctx.mkdtemp("sweep-pool-")}

    def run_pass(self, state) -> Pass:
        out = Pass()
        spans = self.ctx.spans

        runner = SweepRunner(jobs=1, cache=ResultCache(state["cold"]))
        start = time.perf_counter()
        with spans.span("harness.cold_sweep", request="cold"):
            curves = self._sweep(runner)
        cold = time.perf_counter() - start
        stats = runner.stats
        requests = stats.hits + stats.misses
        out.attempted += requests
        ran = [row for row in stats.per_run if not row["cached"]]
        aurc = sum(row["wall_seconds"] for row in ran
                   if "/AURC" in row["run"])
        tm = stats.compute_seconds - aurc

        store = ResultCache(state["cold"])
        out.docs = [store.get(key) for key in sorted(store.load_index())]
        if len(out.docs) != stats.misses or None in out.docs:
            out.fail(f"store holds {len(out.docs)} results after "
                     f"{stats.misses} simulations")
            out.docs = [d for d in out.docs if d is not None]
        out.exact = {"cycles": sorted(d["execution_cycles"]
                                      for d in out.docs)}

        warm: List[float] = []
        for _ in range(self.warm_repeats):
            again = SweepRunner(jobs=1, cache=ResultCache(state["cold"]))
            start = time.perf_counter()
            with spans.span("harness.warm_sweep", request="warm"):
                served = self._sweep(again)
            warm.append(time.perf_counter() - start)
            out.attempted += requests
            if again.stats.misses:
                out.fail(f"warm re-serve simulated "
                         f"{again.stats.misses} requests")
            elif served != curves:
                out.fail("warm re-serve returned different curves")

        pooled = SweepRunner(jobs=self.ctx.workers,
                             cache=ResultCache(state["pool"]))
        start = time.perf_counter()
        with spans.span("harness.pool_sweep", request="pool"):
            parallel = self._sweep(pooled)
        pool = time.perf_counter() - start
        out.attempted += requests
        if parallel != curves:
            out.fail("pooled sweep returned different curves")

        out.samples = {"cold_s": cold, "tm_s": tm, "aurc_s": aurc,
                       "warm_s": sum(warm), "pool_s": pool}
        pool_stats = pooled.stats
        out.layer = {
            "harness.parallel.cold_sweep_s": cold,
            "harness.parallel.warm_sweep_ms":
                1e3 * statistics.median(warm),
            "harness.parallel.pool_wall_s": pool,
            "harness.parallel.batch_s": stats.batch_seconds,
            "harness.parallel.compute_s": stats.compute_seconds,
            "harness.parallel.overhead_s":
                stats.batch_seconds - stats.compute_seconds,
            "harness.parallel.unique_runs": float(stats.misses),
            "harness.parallel.memo_hits": float(stats.hits),
            "harness.parallel.pool_efficiency":
                pool_stats.compute_seconds
                / (self.ctx.workers * pool_stats.batch_seconds),
        }
        return out

    def end_to_end(self, best: Dict[str, float]) -> Dict[str, float]:
        return {"wall_s": best["cold_s"] + best["warm_s"] + best["pool_s"],
                "tm_wall_s": best["tm_s"], "aurc_wall_s": best["aurc_s"]}

    def trace_set(self, first: Pass):
        # Profiling all four figures cold would take most of a run;
        # figure 13 goes through the same code, and re-serves from the
        # store it filled put the harness's share beside the
        # simulator's.
        part = self.figures[:1]

        def cold_then_warm():
            root = self.ctx.mkdtemp("sweep-trace-")
            self._sweep(SweepRunner(jobs=1, cache=ResultCache(root)),
                        part)
            for _ in range(self.warm_repeats):
                self._sweep(
                    SweepRunner(jobs=1, cache=ResultCache(root)), part)

        return [("fig13 cold, then warm", cold_then_warm, None)]
