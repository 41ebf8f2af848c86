"""The benchmark's own tests: every workload passes its checks at a reduced
size, and every check fails on a deliberately corrupted output.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from common import CheckFailed, load_gridwatch, x_csv  # noqa: E402

SMALL_S = 20.0   # stream scenario length at reduced size
SEED = 5


@pytest.fixture(scope="module")
def gw():
    return load_gridwatch()


@pytest.fixture(scope="module")
def small(gw):
    """A reduced scenario, its offline outputs and the independent x[k]."""
    st = inputs.make_streams(gw, SEED, SMALL_S)
    res = gw.pipeline.run_offline(st.feeder, gw.model.Placement(inputs.SENSORS), st.frames)
    log = res.event_log.to_jsonl(epoch=st.scenario.start_time,
                                 sample_rate=st.scenario.sample_rate)
    expected = checks.expected_x(gw.model.build_system(st.feeder).H, st.feeder.bus_ids,
                                 st.frames)
    return st, log, x_csv(res.xs), expected


# ------------------------------------------------------------ whole workloads

def test_analyze_small_passes(gw):
    out = run.run_analyze(gw, SEED, 0, trace=False, duration_s=SMALL_S)
    # the fixed noise realisation may show the central-onset miss, no other
    assert out.attempted == 1 and out.wrong == 0
    e2e = out.e2e()
    assert all(v > 0 for v in e2e.values())


def test_central_replay_small_passes_traced(gw):
    out = run.run_central_replay(gw, SEED, 0, trace=True, duration_s=10.0)
    assert (out.attempted, out.failed) == (1, 0)
    layers = run.layer_metrics(out)
    for name in ("central.fuse_us", "central.track_us", "transport.read_us",
                 "transport.decode_us", "transport.align_us", "transport.encode_us",
                 "transport.pending_max", "transport.wire_bytes_per_frame",
                 "transport.shutdown_tail_s", "central.model_build_ms"):
        assert layers[name] > 0, name
    assert layers["analytics.derive_us"] == 0


def test_place_small_passes_traced(gw):
    out = run.run_place(gw, SEED, 0, trace=True, k=1)
    assert (out.attempted, out.failed) == (1, 0)
    layers = run.layer_metrics(out)
    # 70 candidates, plus the final placement's evaluation
    assert layers["placement.evaluations"] == inputs.greedy_candidates(70, 1) + 1
    assert layers["placement.svd_ms"] > 0 and layers["model.partition_ms"] > 0


def test_only_the_central_onset_miss_keeps_a_run_correct():
    def fail(exc):
        def check():
            raise exc("x")
        return check
    out = run.Outcome()
    out.record(lambda: None)
    out.record(fail(checks.CentralOnsetMissed))
    assert (out.attempted, out.failed, out.wrong) == (2, 1, 0)
    out.setup_s, out.op_s, out.units, out.rss_mb = [1.0], [2.0, 2.0], 10, [3.0]
    assert run.result(out, trace=False)["correct"] is True
    out.record(fail(CheckFailed))
    assert (out.attempted, out.failed, out.wrong) == (3, 2, 1)
    assert run.result(out, trace=False)["correct"] is False


def test_result_line_holds_every_metric():
    out = run.Outcome()
    out.attempted, out.setup_s, out.op_s, out.units, out.rss_mb = 2, [1.0], [2.0], 10, [3.0]
    line = run.result(out, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"setup_s": {"value": 1.0, "unit": "s"},
                               "throughput": {"value": 5.0, "unit": "1/s"},
                               "peak_rss_mb": {"value": 3.0, "unit": "MB"}}
    bench = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(line["metrics"])
    traced = run.result(out, trace=True)["metrics"]
    assert [m["name"] for m in bench["per_layer"]] == list(traced)
    assert all(traced[m["name"]]["unit"] == m["unit"] for m in bench["per_layer"])


# ------------------------------------------------------------ analyze checks

def test_analysis_checks_pass_on_program_output(small):
    st, log, xcsv, expected = small
    checks.check_analysis(log, xcsv, expected, st.scenario, inputs.SENSORS)


def test_analysis_checks_central_onsets(small, monkeypatch):
    st, log, xcsv, expected = small
    seen = []
    monkeypatch.setattr(checks, "check_central_onsets", lambda *a: seen.append(a))
    checks.check_analysis(log, xcsv, expected, st.scenario, inputs.SENSORS)
    assert len(seen) == 1


def test_perturbed_x_fails(small):
    st, log, xcsv, expected = small
    lines = xcsv.splitlines()
    k, x = lines[100].split(",")
    lines[100] = f"{k},{float(x) * (1 + 1e-7)!r}"
    with pytest.raises(CheckFailed, match="x\\[99\\]"):
        checks.check_xs("\n".join(lines) + "\n", expected)


def test_dropped_x_row_fails(small):
    st, log, xcsv, expected = small
    lines = xcsv.splitlines()
    del lines[50]
    with pytest.raises(CheckFailed):
        checks.check_xs("\n".join(lines) + "\n", expected)


def test_dropped_fault_detection_fails(small):
    st, log, xcsv, expected = small
    fault = next(e for e in st.scenario.events if e.kind == "slg_fault")
    entries = checks.parse_log(log)

    def at_fault(d):   # sensor 19's voltage entries at the fault, one per phase
        return (d["rule"] == "voltage_mag" and d["origin"] == "19"
                and abs(d["start_k"] - fault.start_k) <= checks.ONSET_TOL)
    assert any(at_fault(d) for d in entries)
    entries = [d for d in entries if not at_fault(d)]
    with pytest.raises(CheckFailed, match="no voltage_mag entry"):
        checks.check_events(entries, st.scenario, inputs.SENSORS)


@pytest.mark.parametrize("fault", [0, 1])
def test_missing_central_record_fails(small, fault):
    st, log, xcsv, expected = small
    start = [e.start_k for e in st.scenario.events if e.kind == "slg_fault"][fault]
    entries = checks.parse_log(log)

    def at_fault(d):
        return (d["rule"] == "central_subspace"
                and abs(d["start_k"] - start) <= checks.ONSET_TOL)
    assert any(at_fault(d) for d in entries)
    kept = [d for d in entries if not at_fault(d)]
    with pytest.raises(checks.CentralOnsetMissed, match=f"k=\\[{start}\\]"):
        checks.check_central_onsets(kept, st.scenario)
    late = [dict(d, start_k=start + checks.ONSET_TOL + 1) if at_fault(d) else d
            for d in entries]
    with pytest.raises(checks.CentralOnsetMissed):
        checks.check_central_onsets(late, st.scenario)


def test_central_record_off_its_interval_fails(small):
    st, log, xcsv, expected = small
    entries = checks.parse_log(log)
    i = next(i for i, d in enumerate(entries) if d["rule"] == "central_subspace")
    entries[i] = dict(entries[i], change_ks=[entries[i]["start_k"] + 1])
    with pytest.raises(CheckFailed, match="change points"):
        checks.check_events(entries, st.scenario, inputs.SENSORS)


def test_voltage_entry_outside_events_fails(small):
    st, log, xcsv, expected = small
    entries = checks.parse_log(log)
    stray = dict(next(d for d in entries if d["rule"] == "voltage_mag"), start_k=5)
    with pytest.raises(CheckFailed, match="outside every event"):
        checks.check_events(entries + [stray], st.scenario, inputs.SENSORS)


def test_reordered_log_lines_fail(small):
    st, log, xcsv, expected = small
    lines = log.splitlines()
    i = next(i for i in range(len(lines) - 1)
             if json.loads(lines[i])["start_k"] != json.loads(lines[i + 1])["start_k"])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    with pytest.raises(CheckFailed, match="out of order"):
        checks.check_log_order(checks.parse_log("\n".join(lines)))


def test_wrong_incident_fails(small):
    st, log, xcsv, expected = small
    entries = checks.parse_log(log)
    entries[-1] = dict(entries[-1], incident=entries[-1]["incident"] + 1)
    with pytest.raises(CheckFailed, match="incident"):
        checks.check_log_order(entries)


# ------------------------------------------------------------- replay checks

def _replay(small, **change):
    st, log, xcsv, expected = small
    r = {"code": 0, "stdout": "sessions=3 gaps=0 rejected=0; wrote out/eventlog.jsonl\n",
         "log": log, "xcsv": xcsv}
    r.update(change)
    return r


def test_replay_checks_pass_on_offline_output(small):
    st, log, xcsv, expected = small
    checks.check_replay(_replay(small), log, xcsv, expected, 3)


@pytest.mark.parametrize("change, match", [
    ({"code": 4}, "exited"),
    ({"stdout": "sessions=3 gaps=2 rejected=0; wrote x\n"}, "gaps=2"),
    ({"stdout": "sessions=3 gaps=0 rejected=1; wrote x\n"}, "rejected=1"),
    ({"stdout": "sessions=2 gaps=0 rejected=0; wrote x\n"}, "sessions=2"),
])
def test_replay_cli_faults_fail(small, change, match):
    st, log, xcsv, expected = small
    with pytest.raises(CheckFailed, match=match):
        checks.check_replay(_replay(small, **change), log, xcsv, expected, 3)


def test_replay_dropped_or_reordered_line_fails(small):
    st, log, xcsv, expected = small
    lines = log.splitlines(keepends=True)
    for bad in ("".join(lines[1:]), "".join([lines[1], lines[0]] + lines[2:])):
        with pytest.raises(CheckFailed, match="eventlog"):
            checks.check_replay(_replay(small, log=bad), log, xcsv, expected, 3)


def test_replay_perturbed_x_fails(small):
    st, log, xcsv, expected = small
    bad = xcsv.replace("\n7,", "\n7,1", 1)
    with pytest.raises(CheckFailed, match="central_x"):
        checks.check_replay(_replay(small, xcsv=bad), log, xcsv, expected, 3)


# ---------------------------------------------------------- placement checks

@pytest.fixture(scope="module")
def ieee34_place(gw):
    feeder = gw.model.load_feeder(gw.cli.find_feeder("ieee34"))
    H = gw.model.build_system(feeder).H
    res = gw.placement.greedy_place(gw.model.build_system(feeder), 2)
    solve = {"buses": list(res.placement.sensor_buses), "objective": res.objective,
             "evaluations": res.evaluations}
    return feeder, H, solve, checks.oracle_greedy(H, feeder.bus_ids, 2)


def test_placement_checks_pass_on_program_output(ieee34_place):
    feeder, H, solve, reachable = ieee34_place
    checks.check_placement(solve, H, feeder.bus_ids, 2, 67, reachable)


def test_placement_swapped_bus_fails(ieee34_place):
    feeder, H, solve, reachable = ieee34_place
    other = next(b for b in feeder.bus_ids if b not in solve["buses"])
    bad = dict(solve, buses=[solve["buses"][0], other])
    with pytest.raises(CheckFailed, match="recomputed"):
        checks.check_placement(bad, H, feeder.bus_ids, 2, 67, reachable)


@pytest.mark.parametrize("change, match", [
    ({"buses": [7, 7]}, "distinct"),
    ({"buses": [7]}, "distinct"),
    ({"buses": [7, 999]}, "outside"),
    ({"evaluations": 66}, "evaluations"),
    ({"objective": None}, "recomputed"),
])
def test_placement_faults_fail(ieee34_place, change, match):
    feeder, H, solve, reachable = ieee34_place
    bad = dict(solve, **change)
    if bad["objective"] is None:
        bad["objective"] = solve["objective"] * (1 + 1e-8)
    with pytest.raises(CheckFailed, match=match):
        checks.check_placement(bad, H, feeder.bus_ids, 2, 67, reachable)


def test_placement_not_greedy_optimal_fails(gw, ieee34_place):
    """A placement whose objective is right for its buses but not greedy's."""
    feeder, H, solve, reachable = ieee34_place
    worse = [b for b in feeder.bus_ids if b not in solve["buses"]][-2:]
    obj = checks.gram_objective(H, checks.sensed_columns(list(feeder.bus_ids), worse,
                                                         H.shape[1]))
    bad = dict(solve, buses=worse, objective=obj)
    with pytest.raises(CheckFailed, match="independent greedy"):
        checks.check_placement(bad, H, feeder.bus_ids, 2, 67, reachable)
