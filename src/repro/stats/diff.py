"""Cross-run differential analysis: where did the cycles go *between*
two runs?

The paper's argument is differential -- figures 12-16 are about how the
stall/coherence/communication mix shifts as protocols and hardware
ratios change -- and so is every regression hunt: "this run is +14.7%
slower; which category ate it?"  This module aligns two run documents
and emits structured deltas:

* **Cycle attribution** over the merged per-processor time breakdown.
  The five figure-2 categories (busy / data / synch / ipc / others)
  charge every processor cycle to exactly one bucket, so the category
  deltas sum to the total delta *by construction*: the residual is
  arithmetically zero unless the two documents disagree about what a
  breakdown is.  Identical runs therefore diff to zero unexplained
  delta, and a faulted run's overhead decomposes into named categories
  with residual ~0.
* **Named detail rows** that subdivide the category deltas when both
  runs carry metrics or causal sections: cycle-denominated counters
  (retransmit backoff, controller stall windows, lock acquire stalls,
  barrier waits, ...) and causal data-request legs (controller
  queue-wait, remote service, wire).  Detail rows overlap the exclusive
  categories -- they explain *which mechanism* inside a category moved
  -- and are reported separately so the exhaustive-category residual
  stays meaningful.
* **Counter / network deltas** for every non-cycle metric the runs
  share.

Accepted inputs (:func:`load_run_doc`): a ``repro-run-report/1`` or
``/2`` document, a bare ``RunResult.to_json()`` document, or a row of
the 18-config golden-cycles fixture (via :func:`golden_doc`), so
``repro diff`` can compare live runs, archived reports, and the pinned
golden baselines freely.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.stats.breakdown import Category

__all__ = [
    "DIFF_SCHEMA", "GOLDEN_FIXTURE", "load_run_doc", "golden_doc",
    "diff_runs", "format_diff",
]

DIFF_SCHEMA = "repro-diff/1"

# Default location of the golden cycle fixture, relative to the repo
# root (the fixture pins 18 quick configs bit-identical; see
# tests/harness/test_golden_cycles.py).
GOLDEN_FIXTURE = os.path.join("tests", "fixtures", "golden_cycles.json")

# Human names for cycle-denominated counters and histograms, used for
# detail rows.
_CYCLE_COUNTER_LABELS = {
    "nic_backoff_cycles": "retransmit backoff",
    "ctrl_stall_cycles": "controller stall windows",
    "net_spike_cycles": "link latency spikes",
    "net_blocked_cycles": "link arbitration blocking",
    "fault_stall_cycles": "page-fault stalls",
    "lock_acquire_cycles": "lock acquire stalls",
    "barrier_wait_cycles": "barrier waits",
    "ctrl_busy_cycles": "controller busy",
    "au_local_wait_cycles": "AU local waits",
}

# Causal data-request legs that become detail rows.
_CAUSAL_LEG_LABELS = {
    "queue_wait": "controller queue-wait",
    "local_service": "local service",
    "remote_service": "remote service",
    "wire": "wire transfer",
}


def load_run_doc(source, label: Optional[str] = None) -> dict:
    """Normalize ``source`` into ``{"label", "run", "metrics", "causal"}``.

    ``source`` may be a path to a JSON file or an already-loaded dict in
    either accepted shape (run report v1/v2, bare run document).
    """
    if isinstance(source, str):
        path = source
        with open(path) as fh:
            doc = json.load(fh)
        if label is None:
            label = os.path.basename(path)
    else:
        doc = source
    if label is None:
        label = "run"
    if not isinstance(doc, dict):
        raise ValueError(f"{label}: expected a JSON object, got "
                         f"{type(doc).__name__}")
    schema = doc.get("schema", "")
    if schema.startswith("repro-run-report/") or (
            "run" in doc and isinstance(doc["run"], dict)):
        return {"label": label, "run": doc["run"],
                "metrics": doc.get("metrics"),
                "causal": doc.get("causal")}
    if "execution_cycles" in doc and "breakdown" in doc:
        return {"label": label, "run": doc, "metrics": None,
                "causal": None}
    raise ValueError(f"{label}: unrecognized run document "
                     f"(schema={schema!r})")


def golden_doc(key: str, fixture_path: Optional[str] = None) -> dict:
    """One golden-fixture config as a normalized run document.

    ``key`` is the fixture row key, e.g. ``"Em3d/TM/I+P+D/4p/quick"``;
    app, protocol, and processor count are recovered from it.
    """
    path = fixture_path or GOLDEN_FIXTURE
    with open(path) as fh:
        fixture = json.load(fh)
    runs = fixture.get("runs", {})
    if key not in runs:
        known = ", ".join(sorted(runs)) or "(none)"
        raise KeyError(f"golden config {key!r} not in {path}; "
                       f"known: {known}")
    row = runs[key]
    parts = key.split("/")
    app = parts[0] if parts else "?"
    procs_part = next((p for p in parts if p.endswith("p")
                       and p[:-1].isdigit()), None)
    protocol = "/".join(p for p in parts[1:]
                        if p != procs_part and p != "quick")
    run = {
        "app": app,
        "protocol": protocol,
        "n_procs": int(procs_part[:-1]) if procs_part else 0,
        "execution_cycles": row["execution_cycles"],
        "breakdown": dict(row["breakdown"]),
        "finish_times": list(row.get("finish_times", [])),
    }
    return {"label": f"golden:{key}", "run": run, "metrics": None,
            "causal": None}


# -- helpers ---------------------------------------------------------------


def _sum_counters(metrics: Optional[dict]) -> Dict[str, float]:
    """Counter totals summed over label sets, by name, plus the ``sum``
    of every ``_cycles`` histogram (so cycle distributions such as
    retransmit backoff become detail rows too)."""
    totals: Dict[str, float] = {}
    if not metrics:
        return totals
    for counter in metrics.get("counters", []):
        name = counter.get("name", "?")
        totals[name] = totals.get(name, 0.0) + counter.get("value", 0.0)
    for hist in metrics.get("histograms", []):
        name = hist.get("name", "?")
        if name.endswith("_cycles"):
            totals[name] = totals.get(name, 0.0) + hist.get("sum", 0.0)
    return totals


def _delta_entry(a: float, b: float, base_total: float) -> Dict[str, float]:
    return {
        "a": a, "b": b, "delta": b - a,
        "pct": (b - a) / base_total if base_total else 0.0,
    }


def _breakdown_cycles(run: dict) -> Optional[Dict[str, float]]:
    data = run.get("breakdown")
    if isinstance(data, dict):
        return {c.value: float(data.get(c.value, 0.0)) for c in Category}
    return None


# -- the differ ------------------------------------------------------------


def diff_runs(a, b, label_a: Optional[str] = None,
              label_b: Optional[str] = None, top: int = 10) -> dict:
    """Structured delta of run ``b`` against baseline ``a``.

    Both arguments go through :func:`load_run_doc` (paths or dicts).
    Returns the ``repro-diff/1`` document; render with
    :func:`format_diff`.
    """
    na = a if isinstance(a, dict) and "run" in a and "label" in a \
        else load_run_doc(a, label=label_a)
    nb = b if isinstance(b, dict) and "run" in b and "label" in b \
        else load_run_doc(b, label=label_b)
    if label_a:
        na = dict(na, label=label_a)
    if label_b:
        nb = dict(nb, label=label_b)
    ra, rb = na["run"], nb["run"]

    mismatches: List[str] = []
    for field in ("app", "protocol", "n_procs"):
        va, vb = ra.get(field), rb.get(field)
        if va is not None and vb is not None and va != vb:
            mismatches.append(f"{field}: {va!r} vs {vb!r}")

    cycles_a = float(ra.get("execution_cycles", 0.0))
    cycles_b = float(rb.get("execution_cycles", 0.0))
    doc: Dict[str, Any] = {
        "schema": DIFF_SCHEMA,
        "a": {"label": na["label"], "app": ra.get("app"),
              "protocol": ra.get("protocol"),
              "n_procs": ra.get("n_procs")},
        "b": {"label": nb["label"], "app": rb.get("app"),
              "protocol": rb.get("protocol"),
              "n_procs": rb.get("n_procs")},
        "aligned": not mismatches,
        "mismatches": mismatches,
        "execution_cycles": {
            "a": cycles_a, "b": cycles_b, "delta": cycles_b - cycles_a,
            "pct": ((cycles_b - cycles_a) / cycles_a
                    if cycles_a else 0.0),
        },
    }

    # -- cycle attribution over the exclusive breakdown categories -------
    ba, bb = _breakdown_cycles(ra), _breakdown_cycles(rb)
    attribution: Optional[Dict[str, Any]] = None
    if ba is not None and bb is not None:
        total_a = sum(ba.values())
        total_b = sum(bb.values())
        categories = [
            dict(name=c.value, **_delta_entry(ba[c.value], bb[c.value],
                                              total_a))
            for c in Category
        ]
        total_delta = total_b - total_a
        residual = total_delta - sum(row["delta"] for row in categories)
        attribution = {
            "basis": "merged per-processor breakdown cycles",
            "total": {"a": total_a, "b": total_b, "delta": total_delta,
                      "pct": total_delta / total_a if total_a else 0.0},
            "categories": categories,
            "residual": residual,
            "residual_pct": residual / total_a if total_a else 0.0,
        }
        diff_a = float(ra.get("breakdown", {}).get("diff", 0.0))
        diff_b = float(rb.get("breakdown", {}).get("diff", 0.0))
        if diff_a or diff_b:
            attribution["diff_overlay"] = _delta_entry(diff_a, diff_b,
                                                       total_a)
        doc["attribution"] = attribution

    # -- named detail rows (overlapping): cycle counters + causal legs ---
    detail: List[Dict[str, Any]] = []
    base_total = (attribution["total"]["a"] if attribution else 0.0) \
        or cycles_a
    counters_a = _sum_counters(na.get("metrics"))
    counters_b = _sum_counters(nb.get("metrics"))
    # Counters are compared only when both runs carried a metrics
    # registry: a missing registry means "not recorded", not zero.
    if counters_a and counters_b:
        for name in sorted(set(counters_a) | set(counters_b)):
            if not name.endswith("_cycles"):
                continue
            va = counters_a.get(name, 0.0)
            vb = counters_b.get(name, 0.0)
            if va == vb == 0.0:
                continue
            detail.append(dict(
                name=_CYCLE_COUNTER_LABELS.get(name, name),
                source=f"counter:{name}",
                **_delta_entry(va, vb, base_total)))
        counter_rows = []
        for name in sorted(set(counters_a) | set(counters_b)):
            if name.endswith("_cycles"):
                continue
            va = counters_a.get(name, 0.0)
            vb = counters_b.get(name, 0.0)
            if va != vb:
                counter_rows.append({"name": name, "a": va, "b": vb,
                                     "delta": vb - va})
        counter_rows.sort(key=lambda row: -abs(row["delta"]))
        doc["counters"] = counter_rows[:top]
        doc["counters_compared"] = len(
            set(counters_a) | set(counters_b))
    ca, cb = na.get("causal"), nb.get("causal")
    if ca and cb:
        legs_a = ca.get("data_request_legs", {})
        legs_b = cb.get("data_request_legs", {})
        for key, label in _CAUSAL_LEG_LABELS.items():
            va = float(legs_a.get(key, 0.0))
            vb = float(legs_b.get(key, 0.0))
            if va == vb == 0.0:
                continue
            detail.append(dict(name=label, source=f"causal:{key}",
                               **_delta_entry(va, vb, base_total)))
    if detail:
        detail.sort(key=lambda row: -abs(row["delta"]))
        doc["detail"] = detail

    # -- network deltas --------------------------------------------------
    neta, netb = ra.get("network"), rb.get("network")
    if isinstance(neta, dict) and isinstance(netb, dict):
        doc["network"] = {
            key: {"a": neta.get(key, 0), "b": netb.get(key, 0),
                  "delta": (netb.get(key, 0) or 0)
                  - (neta.get(key, 0) or 0)}
            for key in ("messages", "bytes", "mean_latency")
        }

    # -- protocol counter deltas ----------------------------------------
    pa, pb = ra.get("protocol_counters"), rb.get("protocol_counters")
    if isinstance(pa, dict) and isinstance(pb, dict):
        rows = [{"name": name, "a": pa.get(name, 0), "b": pb.get(name, 0),
                 "delta": (pb.get(name, 0) or 0) - (pa.get(name, 0) or 0)}
                for name in sorted(set(pa) | set(pb))]
        rows = [row for row in rows if row["delta"]]
        rows.sort(key=lambda row: -abs(row["delta"]))
        doc["protocol_counters"] = rows[:top]

    # -- verdict ---------------------------------------------------------
    identical = (cycles_a == cycles_b and not mismatches)
    if identical and attribution is not None:
        identical = all(row["delta"] == 0.0
                        for row in attribution["categories"])
    if identical:
        for section in ("counters", "protocol_counters"):
            identical = identical and not doc.get(section)
        net = doc.get("network", {})
        identical = identical and all(
            entry["delta"] == 0 for entry in net.values())
    doc["identical"] = bool(identical)
    unexplained = abs((attribution or {}).get("residual", 0.0))
    doc["unexplained_cycles"] = unexplained
    return doc


def format_diff(doc: dict, top: int = 10) -> str:
    """Human-readable rendering of a ``repro-diff/1`` document."""
    a, b = doc["a"], doc["b"]
    lines = [f"diff: {a['label']} (A) vs {b['label']} (B)"]
    ident = f"{a.get('app', '?')}/{a.get('protocol', '?')}/" \
            f"{a.get('n_procs', '?')}p"
    lines.append(f"  config         : {ident}"
                 + ("" if doc["aligned"]
                    else "  [MISALIGNED: "
                    + "; ".join(doc["mismatches"]) + "]"))
    ec = doc["execution_cycles"]
    lines.append(
        f"  execution time : {ec['a'] / 1e6:.3f} -> {ec['b'] / 1e6:.3f} "
        f"Mcycles ({100 * ec['pct']:+.1f}%)")
    if doc.get("identical"):
        lines.append("  verdict        : runs are identical -- zero "
                     "unexplained delta")
        return "\n".join(lines)
    attribution = doc.get("attribution")
    if attribution:
        total = attribution["total"]
        lines.append(
            f"  attribution over {attribution['basis']} "
            f"(A total {total['a'] / 1e6:.3f} M, "
            f"delta {100 * total['pct']:+.1f}%):")
        for row in attribution["categories"]:
            lines.append(
                f"    {row['name']:8s} {100 * row['pct']:+7.2f}%  "
                f"({row['delta'] / 1e3:+.1f} Kcycles)")
        lines.append(
            f"    residual {100 * attribution['residual_pct']:+7.2f}%  "
            f"(exhaustive categories)")
        overlay = attribution.get("diff_overlay")
        if overlay:
            lines.append(
                f"    twin/diff overlay {100 * overlay['pct']:+.2f}% "
                f"({overlay['delta'] / 1e3:+.1f} Kcycles, overlaps the "
                f"categories above)")
    for row in doc.get("detail", [])[:top]:
        lines.append(
            f"  detail: {row['name']:28s} {100 * row['pct']:+7.2f}%  "
            f"({row['delta'] / 1e3:+.1f} Kcycles)")
    net = doc.get("network")
    if net:
        lines.append(
            f"  network        : messages {net['messages']['delta']:+.0f},"
            f" bytes {net['bytes']['delta']:+.0f}, mean latency "
            f"{net['mean_latency']['delta']:+.0f} cycles")
    for row in doc.get("protocol_counters", [])[:top]:
        lines.append(f"  protocol: {row['name']:26s} "
                     f"{row['a']:>10g} -> {row['b']:>10g} "
                     f"({row['delta']:+g})")
    for row in doc.get("counters", [])[:top]:
        lines.append(f"  counter : {row['name']:26s} "
                     f"{row['a']:>10g} -> {row['b']:>10g} "
                     f"({row['delta']:+g})")
    return "\n".join(lines)
