"""One benchmark run: the pass loop, the traced run and the result.

A workload is a fixed unit of work (a *pass*) that is set up, run and
torn down several times inside ``--seconds``.  Every timed part is
reported as its fastest reading over the passes, and ``setup_s`` as the
median of as many set-ups.

Why the fastest and not the median: on a shared host, interference only
ever adds time, and it comes in bursts longer than a pass.  Over ten
runs of ``paper16`` the per-part medians of three passes spread 13 %
between their quartiles, the per-part minima 4 %.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import REPO_ROOT, TMP_PARENT, probes
from benchmarks.e2e.layers import LAYERS, LayerProfile
from benchmarks.e2e.spans import Spans

__all__ = ["Context", "Pass", "Workload", "load_declaration",
           "run_workload", "SCHEMA"]

SCHEMA = "repro-e2e/1"


def load_declaration() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@dataclasses.dataclass
class Context:
    """What a workload is given: its seed, sizes and scratch space."""

    seed: int
    smoke: bool
    tmp: str
    spans: Spans
    workers: int = dataclasses.field(
        default_factory=lambda: min(2, os.cpu_count() or 1))

    def mkdtemp(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.tmp)


@dataclasses.dataclass
class Pass:
    """What one pass measured.

    ``samples`` are host times, reduced to the fastest over passes;
    ``exact`` are simulated values that must repeat bit for bit from
    pass to pass; ``docs`` are the result documents the simulated
    counters are summed from; ``layer`` are per-layer readings taken
    from outside (spans, counters the program returns)."""

    samples: Dict[str, float] = dataclasses.field(default_factory=dict)
    exact: Dict[str, object] = dataclasses.field(default_factory=dict)
    docs: List[dict] = dataclasses.field(default_factory=list)
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class Workload:
    """Base class; the four workloads fill in the hooks."""

    name = ""
    # Imported in a fresh interpreter once per pass: the part of
    # set-up a user pays before the first call.
    imports: Tuple[str, ...] = ()

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self):
        """Build inputs and fresh state for one pass (timed as set-up)."""
        return None

    def run_pass(self, state) -> Pass:
        raise NotImplementedError

    def cleanup(self, state) -> None:
        pass

    def end_to_end(self, best: Dict[str, float]) -> Dict[str, float]:
        """``wall_s``, ``tm_wall_s``, ``aurc_wall_s`` from each part's
        fastest reading."""
        raise NotImplementedError

    def trace_set(self, first: "Pass") -> Sequence[
            Tuple[str, Callable[[], object], Optional[float]]]:
        """(label, thunk, unprofiled seconds) triples, profiled one by
        one in a traced run.  The seconds are what the same call took
        in ``first``, the traced run's unprofiled pass; ``None`` has
        the thunk run once more without the profiler to find out."""
        raise NotImplementedError


def _import_in_fresh_interpreter(modules: Sequence[str]) -> None:
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        check=True, stdout=subprocess.DEVNULL)


def _one_pass(workload: Workload) -> Tuple[float, Pass]:
    start = time.perf_counter()
    if workload.imports:
        _import_in_fresh_interpreter(workload.imports)
    state = workload.prepare()
    setup = time.perf_counter() - start
    try:
        result = workload.run_pass(state)
    finally:
        workload.cleanup(state)
    return setup, result


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _fastest(passes: List[Pass]) -> Dict[str, float]:
    return {key: min(p.samples[key] for p in passes if key in p.samples)
            for key in passes[0].samples}


def _check_exact(passes: List[Pass]) -> List[str]:
    first = passes[0].exact
    return [f"{key}: pass {i} gave {p.exact.get(key)!r}, pass 0 "
            f"{value!r}"
            for i, p in enumerate(passes[1:], 1)
            for key, value in first.items() if p.exact.get(key) != value]


def simulated_counters(docs: List[dict]) -> Dict[str, float]:
    """Per-layer counts the simulator itself returns, summed over the
    result documents of one pass.  They repeat exactly per seed."""
    events = sum(d.get("events_processed", 0) for d in docs)
    messages = sum(d["network"]["messages"] for d in docs)
    breakdown = {c: sum(d["breakdown"].get(c, 0.0) for d in docs)
                 for c in ("busy", "data", "synch", "ipc", "others")}
    cycles = sum(breakdown.values()) or 1.0
    diff = sum(d["diff_fraction"] * sum(
        d["breakdown"].get(c, 0.0) for c in breakdown) for d in docs)
    prefetch = [d["prefetch"] for d in docs if "prefetch" in d]
    useless = sum(p["useless"] for p in prefetch)
    completed = useless + sum(p["useful"] for p in prefetch)
    out = {
        "sim.mcycles": sum(d["execution_cycles"] for d in docs) / 1e6,
        "sim.events": float(events),
        "hardware.network.messages": float(messages),
        "hardware.network.bytes":
            float(sum(d["network"]["bytes"] for d in docs)),
        "hardware.network.mean_latency_cycles":
            (sum(d["network"]["mean_latency"] * d["network"]["messages"]
                 for d in docs) / messages) if messages else 0.0,
        "dsm.diff_fraction": diff / cycles,
        "dsm.prefetch.issued":
            float(sum(p["issued"] for p in prefetch)),
        "dsm.prefetch.useless_share":
            useless / completed if completed else 0.0,
        "dsm.coherence_state_bytes": float(sum(
            d.get("coherence_state", {}).get("coherence_state_bytes", 0)
            for d in docs)),
    }
    for name in ("busy", "data", "synch", "ipc"):
        out[f"stats.breakdown.{name}_share"] = breakdown[name] / cycles
    return out


def _traced(workload: Workload, smoke: bool,
            first: Pass) -> Tuple[Dict[str, float], List[dict]]:
    """Profile the trace set, run the probes, gather the layer view."""
    total = LayerProfile()
    plain = 0.0
    configs = []
    for label, thunk, unprofiled in workload.trace_set(first):
        if unprofiled is None:
            start = time.perf_counter()
            thunk()
            unprofiled = time.perf_counter() - start
        plain += unprofiled
        _, one = total.run(thunk)
        row = {"config": label, "unprofiled_s": unprofiled,
               "profiled_s": one.profiled_seconds}
        row.update(one.metrics())
        configs.append(row)
    metrics = total.metrics()
    metrics["trace.overhead_ratio"] = \
        total.profiled_seconds / plain if plain else 0.0
    metrics.update(simulated_counters(first.docs))
    if metrics["sim.events"]:
        metrics["sim.host_us_per_event"] = 1e6 * sum(
            d["wall_seconds"] for d in first.docs) / metrics["sim.events"]
    metrics.update(first.layer)
    metrics.update(probes.run_probes(0.02 if smoke else 0.2))
    store_doc = first.docs[0]
    metrics.update(probes.store_probe(
        workload.ctx.mkdtemp("store-probe-"), store_doc,
        40 if smoke else 400))
    return metrics, configs


def _print_tables(title: str, metrics: Dict[str, float],
                  units: Dict[str, str], configs: List[dict]) -> None:
    print(title)
    for name in sorted(metrics):
        print(f"  {name:44s} {metrics[name]:16.6g} {units[name]}")
    for row in configs:
        shares = " ".join(f"{layer} {row[f'{layer}.self_share']:.2f}"
                          for layer in LAYERS)
        print(f"  trace {row['config']:34s} {shares} "
              f"(x{row['profiled_s'] / row['unprofiled_s']:.1f})")


def _run_passes(workload: Workload, seconds: float,
                once: bool) -> Tuple[List[float], List[Pass]]:
    """Passes until the next would not fit in ``seconds``."""
    setups: List[float] = []
    passes: List[Pass] = []
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        with workload.ctx.spans.span("pass",
                                     request=f"pass-{len(passes)}"):
            setup, result = _one_pass(workload)
        setups.append(setup)
        passes.append(result)
        now = time.perf_counter()
        if once or (now - begin) + (now - pass_start) > seconds:
            return setups, passes


def run_workload(factory: Callable[[Context], Workload], seed: int,
                 seconds: float, trace: bool, smoke: bool,
                 out_dir: Optional[str]) -> int:
    """Run one workload; print its metrics; 0 iff every check held."""
    declared = load_declaration()
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    host = probes.host_context()
    if host["host.load1"] > host["host.cpus"] / 2:
        print(f"warning: 1-min load {host['host.load1']:.2f} on "
              f"{host['host.cpus']:.0f} cpus -- host times will be "
              f"noisy", file=sys.stderr)

    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    spans = Spans(enabled=trace)
    configs: List[dict] = []
    try:
        workload = factory(
            Context(seed=seed, smoke=smoke, tmp=tmp, spans=spans))
        setups, passes = _run_passes(workload, seconds,
                                     once=trace or smoke)
        if trace:
            metrics, configs = _traced(workload, smoke, passes[0])
            metrics.update(host)
            unknown = sorted(set(metrics) - set(units))
            if unknown:
                raise RuntimeError(
                    f"metrics not declared in BENCHMARK.json: {unknown}")
            # A layer the workload never enters reads 0.
            metrics = {name: float(metrics.get(name, 0.0))
                       for name in units}
        else:
            metrics = workload.end_to_end(_fastest(passes))
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = _peak_rss_mb()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass    # another run's scratch is still there

    errors = [e for p in passes for e in p.errors] + _check_exact(passes)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    verdict = {"correct": not errors,
               "attempted": sum(p.attempted for p in passes),
               "failed": sum(p.failed for p in passes)}
    _print_tables(f"{workload.name}: seed {seed}, {len(passes)} passes, "
                  f"trace {int(trace)}", metrics, units, configs)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(
            out_dir, f"{workload.name}-seed{seed}-trace{int(trace)}.json")
        with open(path, "w") as fh:
            json.dump({
                "schema": SCHEMA, "workload": workload.name,
                "seed": seed, "seconds": seconds, "trace": int(trace),
                "smoke": smoke, "host": host, **verdict,
                "metrics": metrics, "setups": setups,
                "passes": [p.samples for p in passes],
                "exact": passes[0].exact, "configs": configs,
                "spans": spans.rows,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        **verdict,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if verdict["correct"] else 1
