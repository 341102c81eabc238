"""Runner / ProtocolConfig / RunResult behaviour."""

import pytest

from repro.apps.ocean import Ocean
from repro.harness.experiments import APP_ORDER, scaled_app
from repro.harness.runner import ProtocolConfig, RunResult, run_app
from repro.hardware.params import MachineParams
from repro.stats.breakdown import Category


def small_app(n=4):
    return Ocean(n, grid=18, iterations=2)


def test_protocol_config_labels():
    assert ProtocolConfig.treadmarks("Base").label == "TM/Base"
    assert ProtocolConfig.treadmarks("I+P+D").label == "TM/I+P+D"
    assert ProtocolConfig.aurc().label == "AURC"
    assert ProtocolConfig.aurc(prefetch=True).label == "AURC+P"


def test_needs_controller():
    assert not ProtocolConfig.treadmarks("Base").needs_controller
    assert not ProtocolConfig.treadmarks("P").needs_controller
    assert ProtocolConfig.treadmarks("I").needs_controller
    assert ProtocolConfig.treadmarks("I+P+D").needs_controller
    assert not ProtocolConfig.aurc().needs_controller


def test_unknown_family_rejected():
    config = ProtocolConfig(family="bogus")
    with pytest.raises(ValueError):
        run_app(small_app(), config)


def test_run_result_fields():
    result = run_app(small_app(), ProtocolConfig.treadmarks("Base"))
    assert isinstance(result, RunResult)
    assert result.app_name == "Ocean"
    assert result.n_procs == 4
    assert len(result.breakdowns) == 4
    assert len(result.finish_times) == 4
    assert result.execution_cycles == max(result.finish_times)
    assert result.verified


def test_params_adjusted_to_app_procs():
    result = run_app(small_app(2),
                     ProtocolConfig.treadmarks("Base"),
                     params=MachineParams(n_processors=16))
    assert result.n_procs == 2


def test_verify_false_skips_epilogue():
    result = run_app(small_app(), ProtocolConfig.treadmarks("Base"),
                     verify=False)
    assert not result.verified


def test_merged_breakdown_sums_processors():
    result = run_app(small_app(), ProtocolConfig.treadmarks("Base"))
    merged = result.merged_breakdown
    total = sum(b.total for b in result.breakdowns)
    assert merged.total == pytest.approx(total)
    assert 0 < result.category_fraction(Category.BUSY) < 1


def test_epilogue_runs_outside_timed_region():
    verified = run_app(small_app(), ProtocolConfig.treadmarks("Base"))
    bare = run_app(small_app(), ProtocolConfig.treadmarks("Base"),
                   verify=False)
    assert verified.execution_cycles == bare.execution_cycles


@pytest.mark.parametrize("config", [ProtocolConfig.treadmarks("Base"),
                                    ProtocolConfig.treadmarks("I+P+D"),
                                    ProtocolConfig.aurc()],
                         ids=lambda c: c.label)
@pytest.mark.parametrize("app_name", APP_ORDER)
def test_epilogue_leaves_run_statistics_untouched(app_name, config):
    # Regression: the result held live references to the network,
    # protocol, lock and barrier counters, so the verify epilogue's own
    # traffic was reported as the run's (Radix TM/I+P+D at 4 processors:
    # 1153 messages without verify, 1562 with it).
    verified = run_app(scaled_app(app_name, 4, quick=True), config)
    bare = run_app(scaled_app(app_name, 4, quick=True), config,
                   verify=False)
    assert verified.verified and not bare.verified
    host_fields = ("verified", "wall_seconds")
    assert {k: v for k, v in verified.to_json().items()
            if k not in host_fields} \
        == {k: v for k, v in bare.to_json().items() if k not in host_fields}
    assert verified.lock_stats == bare.lock_stats
    assert verified.barrier_stats == bare.barrier_stats


def test_diff_fraction_positive_for_tm():
    result = run_app(small_app(), ProtocolConfig.treadmarks("Base"))
    assert result.diff_fraction() > 0


def test_network_stats_populated():
    result = run_app(small_app(), ProtocolConfig.aurc())
    assert result.network.messages > 0
    assert result.network.bytes > 0


class _IdleZero:
    """Two workers: pid 0 finishes at cycle 0, pid 1 computes."""

    name = "idlezero"
    nprocs = 2

    def allocate(self, segment):
        pass

    def worker(self, api, pid):
        if pid == 0:
            return
            yield  # pragma: no cover - makes this a generator
        yield from api.compute(1000)


def test_finish_time_zero_not_replaced_by_now():
    # Regression: `finished_at or sim.now` rewrote a legitimate cycle-0
    # finish to the end of the run, inflating that worker's finish time.
    result = run_app(_IdleZero(), ProtocolConfig.treadmarks("Base"),
                     verify=False)
    assert result.finish_times[0] == 0
    assert result.finish_times[1] >= 1000
    assert result.execution_cycles == max(result.finish_times)


def test_to_json_round_trips():
    import json
    result = run_app(small_app(), ProtocolConfig.treadmarks("Base"))
    blob = json.dumps(result.to_json())
    data = json.loads(blob)
    assert data["app"] == "Ocean"
    assert data["protocol"] == "TM/Base"
    assert data["verified"] is True
    assert data["network"]["messages"] > 0
    assert set(data["breakdown"]) == {"busy", "data", "synch", "ipc",
                                      "others", "diff"}
