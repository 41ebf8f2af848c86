import json
from dataclasses import replace

import numpy as np
import pytest

from gridwatch.analytics import PhasorFrame, StreamColumns, complex_power, window_correlations
from gridwatch.model import build_system
from gridwatch.synth import (CSV_HEADER, Event, GroundTruth, Scenario, ScenarioError,
                             apply_replay_attack, generate, iso_time, read_stream_csv,
                             solve_network, write_stream_csv, write_streams,
                             SLACK_V)

from conftest import reference_frames, scenario_path, toy_feeder


def small_scenario(feeder, **kw):
    args = dict(feeder=feeder.name, duration_s=0.5,
                base_loads={feeder.bus_ids[-1]: np.full(3, 0.002 + 0.001j)},
                beta_profile=((0, 0.0),), noise_sigma=0.0, seed=1,
                sensors=feeder.bus_ids, events=())
    args.update(kw)
    return Scenario(**args)


def stack_d(feeder, vi_by_bus):
    """d = [injections; voltages] from each sensor's (voltage, summed current) row."""
    B = feeder.bus_count
    d = np.zeros(6 * B, dtype=complex)
    for b, (v, inj) in vi_by_bus.items():
        i = feeder.index_of(b)
        d[3 * i:3 * i + 3] = inj
        d[3 * B + 3 * i:3 * B + 3 * i + 3] = v
    return d


def test_construction_consistency_sigma_zero(ieee34):
    sysm = build_system(ieee34)
    sc = small_scenario(ieee34, duration_s=0.2,
                        base_loads={25: np.full(3, 0.001 + 0.0005j)})
    streams, _ = generate(sc, ieee34)
    n = len(streams[1])
    for k in range(n):
        d = stack_d(ieee34, {b: s.vi[k] for b, s in streams.items()})
        assert np.linalg.norm(sysm.H @ d) <= 1e-10 * np.linalg.norm(d)


def test_constant_beta_rank_one(ieee34):
    beta = 2 * np.pi * 0.05 / 120
    sc = small_scenario(ieee34, duration_s=0.5, sensors=(7,),
                        beta_profile=((0, beta),))
    streams, _ = generate(sc, ieee34)
    R = window_correlations(streams[7].v, streams[7].lines["6-7"][1], 12)
    assert len(R) == len(streams[7]) - 11
    s = np.linalg.svd(R, compute_uv=False)
    assert (s[:, 1] / s[:, 0]).max() <= 1e-8


def test_noise_calibration_within_five_percent(ieee34):
    sigma = 3e-4
    base = small_scenario(ieee34, duration_s=30.0, sensors=(7,))
    noisy = replace(base, noise_sigma=sigma)
    clean_streams, _ = generate(base, ieee34)
    noisy_streams, _ = generate(noisy, ieee34)
    diffs = noisy_streams[7].v - clean_streams[7].v
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
    sib = np.abs(streams[3].lines["2-3"][1][30] - streams[3].lines["2-3"][1][10]).max()
    path = np.abs(streams[2].lines["1-2"][1][30] - streams[2].lines["1-2"][1][10]).max()
    assert path > 100 * sib
    assert 4 in truth.events[0]["affected_buses"]

    # with no sibling load the off-path branch carries exactly nothing
    sc2 = Scenario(feeder="y", duration_s=0.5,
                   base_loads={4: np.full(3, 0.01 + 0.005j)}, noise_sigma=0.0,
                   sensors=(1, 2, 3, 4), seed=0,
                   events=(Event(kind="load_loss", bus=4, start_k=20, end_k=40,
                                 magnitude=1.0),))
    streams2, _ = generate(sc2, feeder)
    assert np.abs(streams2[3].lines["2-3"][1][10]).max() <= 1e-12
    assert np.abs(streams2[3].lines["2-3"][1][30]).max() <= 1e-12


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
    p1, _ = complex_power(streams[1].v[0], streams[1].lines["1-2"][1][0])
    p2, _ = complex_power(streams[2].v[0], streams[2].lines["1-2"][1][0])
    assert abs(p1.sum() + p2.sum()) <= 1e-9


def test_voltage_sag_event(ieee34):
    sc = small_scenario(ieee34, duration_s=0.5, sensors=(7,),
                        events=(Event(kind="voltage_sag", bus=1, start_k=20,
                                      end_k=40, magnitude=0.5),))
    streams, _ = generate(sc, ieee34)
    assert np.abs(streams[7].v[30]).max() < 0.6
    assert np.abs(streams[7].v[5]).min() > 0.9


def test_fuse_open_deenergizes_downstream(ieee34):
    sc = small_scenario(ieee34, duration_s=0.5, sensors=(26, 27),
                        events=(Event(kind="fuse_open", line="25-26", phase="a",
                                      start_k=20, end_k=50),))
    streams, _ = generate(sc, ieee34)
    assert abs(streams[26].v[30, 0]) == 0.0   # phase a islanded
    assert abs(streams[26].v[30, 1]) > 0.8    # healthy phases still fed
    assert abs(streams[27].v[30, 0]) == 0.0
    assert abs(streams[26].v[5, 0]) > 0.8


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


def assert_same_columns(got, want):
    """Every word of two streams' columns equal, sign bits included."""
    assert got.bus == want.bus and list(got.lines) == list(want.lines)
    assert got.ks.dtype == want.ks.dtype and got.ks.tobytes() == want.ks.tobytes()
    assert got.vi.shape == want.vi.shape and got.vi.tobytes() == want.vi.tobytes()
    for lid, (at, cur) in want.lines.items():
        assert np.array_equal(got.lines[lid][0], at)
        assert got.lines[lid][1].shape == cur.shape
        assert got.lines[lid][1].tobytes() == cur.tobytes()


def short_scenario(name):
    """A bundled scenario cut to an eighth of its length, events included,
    with noise; the quiet one gets a one-sample sag and a load ramp, so
    that transitions follow each other at consecutive samples."""
    sc = Scenario.from_json(scenario_path(name).read_text())
    events = tuple(replace(e, start_k=e.start_k // 8, end_k=e.end_k // 8) for e in sc.events)
    if not events:
        events = (Event(kind="voltage_sag", start_k=10, end_k=11, magnitude=0.9),
                  Event(kind="load_step", start_k=30, end_k=36, bus=25, magnitude=1.5))
    return replace(sc, duration_s=sc.duration_s / 8, noise_sigma=1e-3, events=events)


@pytest.mark.parametrize("name", ["slgf", "fault_at_sensor", "load_loss", "quiet"])
def test_generate_matches_per_frame_reference(ieee34, name):
    sc = short_scenario(name)
    streams, _ = generate(sc, ieee34)
    ref = reference_frames(sc, ieee34)
    assert list(streams) == list(ref)
    for b, frames in ref.items():
        assert_same_columns(streams[b], StreamColumns.from_frames(frames))


def test_replay_attack_matches_per_frame_reference(ieee34):
    sc = short_scenario("slgf")
    start, end, window = 40, 90, 30
    attacked = apply_replay_attack(generate(sc, ieee34)[0], 19, start, end, window)
    frames = reference_frames(sc, ieee34)[19]
    hist = frames[start - window:start]
    for j, f in enumerate(frames):   # the per-frame replay that columns replaced
        if start <= f.k < end:
            h = hist[(f.k - start) % window]
            frames[j] = PhasorFrame(k=f.k, bus=f.bus, v=h.v, i_lines=h.i_lines)
    assert_same_columns(attacked[19], StreamColumns.from_frames(frames))


def test_generate_rows_independent_of_length(ieee34):
    """The first n rows of a 2n-sample run equal an n-sample run, bit for bit."""
    sc = short_scenario("slgf")
    n = sc.samples
    whole, _ = generate(replace(sc, duration_s=2 * sc.duration_s), ieee34)
    half, _ = generate(sc, ieee34)
    for b, s in half.items():
        assert_same_columns(whole[b][:n], s)


# ---------------------------------------------------------------- replay attack

def _mini_streams(ieee34, n=400):
    sc = small_scenario(ieee34, duration_s=n / 120.0, sensors=(7, 19),
                        noise_sigma=1e-4)
    streams, _ = generate(sc, ieee34)
    return streams


def test_replay_attack_cycles_history(ieee34):
    streams = _mini_streams(ieee34)
    out = apply_replay_attack(streams, 7, 200, 300, window=50)
    src, got = list(streams[7]), list(out[7])
    for k in range(200, 300):
        expect = src[150 + (k - 200) % 50]
        assert np.array_equal(got[k].v, expect.v)
        assert got[k].i_lines.keys() == expect.i_lines.keys()
        for lid in expect.i_lines:
            assert np.array_equal(got[k].i_lines[lid], expect.i_lines[lid])
        assert got[k].k == k
    assert np.array_equal(got[199].v, src[199].v)
    assert np.array_equal(got[300].v, src[300].v)
    assert np.array_equal(out[7].vi[200:300], streams[7].vi[150 + np.arange(100) % 50])
    assert out[19] is streams[19]  # other sensor untouched


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
    for a, b in zip(streams[7], back):
        assert a.k == b.k and b.bus == 7
        assert np.array_equal(a.v, b.v)
        for lid in a.i_lines:
            assert np.array_equal(a.i_lines[lid], b.i_lines[lid])


def test_csv_rows_by_frame_then_line_id(tmp_path):
    """One row per frame and line, frames in k order and lines by id; a
    frame without a line has no row for it, and every part is its repr."""
    rng = np.random.default_rng(2)
    c3 = lambda: (rng.normal(size=3) + 1j * rng.normal(size=3)) * 10.0 ** rng.integers(-9, 9)
    frames = [PhasorFrame(k=k, bus=7, v=np.array([complex(-0.0, 0.0), *c3()[1:]]),
                          i_lines={lid: c3() for lid in ("7-9", "6-7", "7-8")[k % 2:1 + k % 4]})
              for k in range(40)]
    parts = lambda c: ",".join(repr(float(x)) for z in c for x in (z.real, z.imag))
    start = "2026-01-01T00:00:00+00:00"
    want = [CSV_HEADER] + [f"{f.k},{iso_time(start, f.k, 120.0)},{parts(f.v)},{lid},"
                           f"{parts(f.i_lines[lid])}" for f in frames for lid in sorted(f.i_lines)]
    path = tmp_path / "bus7.csv"
    write_stream_csv(path, StreamColumns.from_frames(frames), start)
    assert path.read_text() == "\n".join(want) + "\n"


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
