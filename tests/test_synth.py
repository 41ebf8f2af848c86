import json
from dataclasses import replace

import numpy as np
import pytest

from gridwatch.analytics import complex_power, window_correlations
from gridwatch.model import build_system
from gridwatch.synth import (Event, GroundTruth, Scenario, ScenarioError,
                             apply_replay_attack, generate, read_stream_csv,
                             solve_network, write_stream_csv, write_streams,
                             SLACK_V)

from conftest import scenario_path, toy_feeder


def small_scenario(feeder, **kw):
    args = dict(feeder=feeder.name, duration_s=0.5,
                base_loads={feeder.bus_ids[-1]: np.full(3, 0.002 + 0.001j)},
                beta_profile=((0, 0.0),), noise_sigma=0.0, seed=1,
                sensors=feeder.bus_ids, events=())
    args.update(kw)
    return Scenario(**args)


def stack_d(feeder, frame_by_bus):
    B = feeder.bus_count
    d = np.zeros(6 * B, dtype=complex)
    for b, f in frame_by_bus.items():
        i = feeder.index_of(b)
        inj = np.zeros(3, dtype=complex)
        for cur in f.i_lines.values():
            inj += cur
        d[3 * i:3 * i + 3] = inj
        d[3 * B + 3 * i:3 * B + 3 * i + 3] = f.v
    return d


def test_construction_consistency_sigma_zero(ieee34):
    sysm = build_system(ieee34)
    sc = small_scenario(ieee34, duration_s=0.2,
                        base_loads={25: np.full(3, 0.001 + 0.0005j)})
    streams, _ = generate(sc, ieee34)
    n = len(streams[1])
    for k in range(n):
        d = stack_d(ieee34, {b: s[k] for b, s in streams.items()})
        assert np.linalg.norm(sysm.H @ d) <= 1e-10 * np.linalg.norm(d)


def test_constant_beta_rank_one(ieee34):
    beta = 2 * np.pi * 0.05 / 120
    sc = small_scenario(ieee34, duration_s=0.5, sensors=(7,),
                        beta_profile=((0, beta),))
    streams, _ = generate(sc, ieee34)
    R = window_correlations(np.array([f.v for f in streams[7]]),
                            np.array([f.i_lines["6-7"] for f in streams[7]]), 12)
    assert len(R) == len(streams[7]) - 11
    s = np.linalg.svd(R, compute_uv=False)
    assert (s[:, 1] / s[:, 0]).max() <= 1e-8


def test_noise_calibration_within_five_percent(ieee34):
    sigma = 3e-4
    base = small_scenario(ieee34, duration_s=30.0, sensors=(7,))
    noisy = replace(base, noise_sigma=sigma)
    clean_streams, _ = generate(base, ieee34)
    noisy_streams, _ = generate(noisy, ieee34)
    diffs = np.array([nf.v - cf.v for nf, cf in zip(noisy_streams[7], clean_streams[7])])
    var = np.mean(np.abs(diffs) ** 2)
    assert var == pytest.approx(sigma ** 2, rel=0.05)
    assert len(diffs) * 3 >= 10_000


def test_load_loss_event_locality():
    # chain 1-2-3-4; loss at 4 changes currents along the whole source path,
    # so a load at an untouched sibling lateral keeps its current
    from conftest import make_line
    from gridwatch.model import Bus, FeederModel
    buses = tuple(Bus(id=i, kv_base=12.47) for i in (1, 2, 3, 4))
    lines = (make_line(1, 2, np.eye(3) * 2.0), make_line(2, 3, np.eye(3) * 2.0),
             make_line(2, 4, np.eye(3) * 2.0))
    feeder = FeederModel(name="y", base_mva=1.0, buses=buses, lines=lines, slack_bus=1)
    loads = {3: np.full(3, 0.01 + 0.005j), 4: np.full(3, 0.01 + 0.005j)}
    sc = Scenario(feeder="y", duration_s=0.5, base_loads=loads, noise_sigma=0.0,
                  sensors=(1, 2, 3, 4), seed=0,
                  events=(Event(kind="load_loss", bus=4, start_k=20, end_k=40,
                                magnitude=1.0),))
    streams, truth = generate(sc, feeder)
    # off-path branch moves only through the sibling load's voltage
    # sensitivity (constant-power coupling); the source path moves by the
    # whole lost load current
    sib = np.abs(streams[3][30].i_lines["2-3"] - streams[3][10].i_lines["2-3"]).max()
    path = np.abs(streams[2][30].i_lines["1-2"] - streams[2][10].i_lines["1-2"]).max()
    assert path > 100 * sib
    assert 4 in truth.events[0]["affected_buses"]

    # with no sibling load the off-path branch carries exactly nothing
    sc2 = Scenario(feeder="y", duration_s=0.5,
                   base_loads={4: np.full(3, 0.01 + 0.005j)}, noise_sigma=0.0,
                   sensors=(1, 2, 3, 4), seed=0,
                   events=(Event(kind="load_loss", bus=4, start_k=20, end_k=40,
                                 magnitude=1.0),))
    streams2, _ = generate(sc2, feeder)
    assert np.abs(streams2[3][10].i_lines["2-3"]).max() <= 1e-12
    assert np.abs(streams2[3][30].i_lines["2-3"]).max() <= 1e-12


def test_reproducibility_same_seed(ieee34):
    sc = small_scenario(ieee34, sensors=(7,), noise_sigma=1e-4)
    a, _ = generate(sc, ieee34)
    b, _ = generate(sc, ieee34)
    for fa, fb in zip(a[7], b[7]):
        assert np.array_equal(fa.v, fb.v)
        for lid in fa.i_lines:
            assert np.array_equal(fa.i_lines[lid], fb.i_lines[lid])


def test_power_conservation_lossless_line():
    # purely reactive series admittance, no shunt: sum of P at both ends is zero
    feeder = toy_feeder(2, y=-4j, shunt=0.0)
    loads = {2: np.full(3, 0.01 + 0.004j)}
    sc = Scenario(feeder="toy", duration_s=0.1, base_loads=loads, noise_sigma=0.0,
                  sensors=(1, 2), seed=0, events=())
    streams, _ = generate(sc, feeder)
    f1, f2 = streams[1][0], streams[2][0]
    p1, _ = complex_power(f1.v, f1.i_lines["1-2"])
    p2, _ = complex_power(f2.v, f2.i_lines["1-2"])
    assert abs(p1.sum() + p2.sum()) <= 1e-9


def test_voltage_sag_event(ieee34):
    sc = small_scenario(ieee34, duration_s=0.5, sensors=(7,),
                        events=(Event(kind="voltage_sag", bus=1, start_k=20,
                                      end_k=40, magnitude=0.5),))
    streams, _ = generate(sc, ieee34)
    assert np.abs(streams[7][30].v).max() < 0.6
    assert np.abs(streams[7][5].v).min() > 0.9


def test_fuse_open_deenergizes_downstream(ieee34):
    sc = small_scenario(ieee34, duration_s=0.5, sensors=(26, 27),
                        events=(Event(kind="fuse_open", line="25-26", phase="a",
                                      start_k=20, end_k=50),))
    streams, _ = generate(sc, ieee34)
    assert abs(streams[26][30].v[0]) == 0.0   # phase a islanded
    assert abs(streams[26][30].v[1]) > 0.8    # healthy phases still fed
    assert abs(streams[27][30].v[0]) == 0.0
    assert abs(streams[26][5].v[0]) > 0.8


def test_solver_reports_interval_on_divergence(ieee34):
    heavy = {25: np.full(3, 5.0 + 2.0j)}
    sc = small_scenario(ieee34, base_loads=heavy)
    with pytest.raises(Exception, match="sample"):
        generate(sc, ieee34)


def test_solve_network_slack_only():
    feeder = toy_feeder(2, y=1.0)
    sysm = build_system(feeder)
    V = solve_network(sysm, {}, SLACK_V)
    assert np.allclose(V[:3], SLACK_V)
    assert np.allclose(V[3:], SLACK_V)


# ---------------------------------------------------------------- replay attack

def _mini_streams(ieee34, n=400):
    sc = small_scenario(ieee34, duration_s=n / 120.0, sensors=(7, 19),
                        noise_sigma=1e-4)
    streams, _ = generate(sc, ieee34)
    return streams


def test_replay_attack_cycles_history(ieee34):
    streams = _mini_streams(ieee34)
    out = apply_replay_attack(streams, 7, 200, 300, window=50)
    src = streams[7]
    for k in range(200, 300):
        expect = src[150 + (k - 200) % 50]
        assert np.array_equal(out[7][k].v, expect.v)
        assert out[7][k].k == k
    assert np.array_equal(out[7][199].v, src[199].v)
    assert np.array_equal(out[7][300].v, src[300].v)
    for k in range(len(src)):  # other sensor untouched
        assert np.array_equal(out[19][k].v, streams[19][k].v)


def test_replay_attack_requires_history(ieee34):
    streams = _mini_streams(ieee34)
    with pytest.raises(ScenarioError):
        apply_replay_attack(streams, 7, 30, 60, window=50)


def test_replay_attack_unknown_sensor(ieee34):
    streams = _mini_streams(ieee34)
    with pytest.raises(ScenarioError):
        apply_replay_attack(streams, 99, 200, 300)


# ---------------------------------------------------------------- files

def test_csv_roundtrip(tmp_path, ieee34):
    sc = small_scenario(ieee34, duration_s=0.2, sensors=(7,), noise_sigma=1e-4)
    streams, _ = generate(sc, ieee34)
    path = tmp_path / "bus7.csv"
    write_stream_csv(path, streams[7], sc.start_time)
    back, skipped = read_stream_csv(path)
    assert skipped == 0
    assert len(back) == len(streams[7])
    for a, b in zip(streams[7], back.frames()):
        assert a.k == b.k and b.bus == 7
        assert np.array_equal(a.v, b.v)
        for lid in a.i_lines:
            assert np.array_equal(a.i_lines[lid], b.i_lines[lid])


def test_csv_malformed_rows_skipped(tmp_path, ieee34):
    sc = small_scenario(ieee34, duration_s=0.1, sensors=(7,))
    streams, _ = generate(sc, ieee34)
    path = tmp_path / "bus7.csv"
    write_stream_csv(path, streams[7], sc.start_time)
    lines = path.read_text().splitlines()
    lines.insert(3, "garbage,row")
    lines.insert(5, lines[4].replace(lines[4].split(",")[2], "not_a_number", 1))
    lines.insert(6, "-1" + lines[6][lines[6].index(","):])
    path.write_text("\n".join(lines) + "\n")
    back, skipped = read_stream_csv(path)
    assert skipped == 3


def test_write_streams_layout(tmp_path, ieee34):
    sc = small_scenario(ieee34, duration_s=0.1, sensors=(7, 19))
    streams, truth = generate(sc, ieee34)
    write_streams(tmp_path, streams, sc, truth)
    assert (tmp_path / "bus7.csv").exists()
    assert (tmp_path / "bus19.csv").exists()
    gt = GroundTruth.from_json((tmp_path / "groundtruth.json").read_text())
    assert gt.events == truth.events
    sc2 = Scenario.from_json((tmp_path / "scenario.json").read_text())
    assert sc2.sensors == (7, 19)


def test_scenario_json_roundtrip():
    text = scenario_path("slgf").read_text()
    sc = Scenario.from_json(text)
    again = Scenario.from_json(sc.to_json())
    assert again.to_json() == sc.to_json()
    assert again.events == sc.events and again.sensors == sc.sensors


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        Event(kind="nope", start_k=0, end_k=10)
    with pytest.raises(ScenarioError):
        Event(kind="slg_fault", start_k=10, end_k=5, line="1-2", phase="a")
    with pytest.raises(ScenarioError):
        Event(kind="slg_fault", start_k=0, end_k=5)
    with pytest.raises(ScenarioError):
        Event(kind="load_loss", start_k=0, end_k=5)
