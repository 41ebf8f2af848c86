import numpy as np
import pytest

from gridwatch.analytics import AnomalyReport, PhasorFrame
from gridwatch.central import (NULL_PROJECTOR, SMALLEST_SINGULAR,
                               CentralChangeRecord, CentralChangeTracker,
                               EventLog, FusedBlock, build_central_model,
                               central_xs, fuse_reports, phase_normalize,
                               smallest_left_singular_vector)
from gridwatch.config import Config
from gridwatch.model import Placement, build_system, partition

from conftest import fuse_streams, random_radial_feeder, toy_feeder


def x_of(model, d_a):
    """`central_xs` of one fused sample."""
    return float(central_xs(model, np.asarray(d_a, dtype=complex)[None])[0])


def _consistent_d(system, rng):
    B = system.bus_count
    V = rng.normal(size=3 * B) + 1j * rng.normal(size=3 * B)
    return np.concatenate([system.Y @ V, V])


def test_full_observability_null_projector_identity():
    sysm = build_system(toy_feeder(5))
    part = partition(sysm, Placement(sysm.feeder.bus_ids))
    model = build_central_model(part)
    assert model.mode == NULL_PROJECTOR
    assert np.array_equal(model.null_projector, np.eye(15, dtype=complex))


def test_ieee34_smallest_singular_oracle(ieee34_system):
    part = partition(ieee34_system, Placement((7, 19, 31)))
    model = build_central_model(part)
    assert model.mode == SMALLEST_SINGULAR
    # full-SVD oracle: u^H H_u attains sigma_min
    s = np.linalg.svd(part.H_u, compute_uv=False)
    attained = np.linalg.norm(np.conj(model.u_us) @ part.H_u)
    assert attained == pytest.approx(s[-1], abs=1e-10)
    assert np.linalg.norm(model.u_us) == pytest.approx(1.0, abs=1e-12)


def test_two_bus_toy_matches_dense_svd():
    sysm = build_system(toy_feeder(2, y=1.0 - 2.0j))
    part = partition(sysm, Placement((1,)))
    model = build_central_model(part)
    u_full, s, _ = np.linalg.svd(part.H_u, full_matrices=False)
    oracle = phase_normalize(u_full[:, -1])
    assert np.allclose(model.u_us, oracle)


def test_nullprojector_mode_consistent_data_exact():
    rng = np.random.default_rng(0)
    sysm = build_system(toy_feeder(5, y=2.0 - 1.0j))
    part = partition(sysm, Placement(sysm.feeder.bus_ids))
    model = build_central_model(part)
    for _ in range(20):
        d = _consistent_d(sysm, rng)
        d_a = d[part.avail_columns]
        assert x_of(model, d_a) <= 1e-18


def test_nullprojector_idempotent():
    rng = np.random.default_rng(2)
    feeder = random_radial_feeder(rng, n_bus=5, p_lateral=0.0)
    sysm = build_system(feeder)
    part = partition(sysm, Placement((1, 2, 3, 4)))  # K=4 > B/2
    model = build_central_model(part)
    assert model.mode == NULL_PROJECTOR
    P = model.null_projector
    assert np.linalg.norm(P @ P - P) <= 1e-10


def test_mode_boundary_random_grids():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        feeder = random_radial_feeder(rng, n_bus=n)
        sysm = build_system(feeder)
        k = int(rng.integers(1, n + 1))
        pick = tuple(int(b) for b in rng.choice(feeder.bus_ids, size=k, replace=False))
        part = partition(sysm, Placement(pick))
        model = build_central_model(part)
        rows, cols = part.H_u.shape
        if cols == 0 or cols < rows:
            assert model.mode == NULL_PROJECTOR
        else:
            assert model.mode == SMALLEST_SINGULAR


def test_metric_scale_invariance(ieee34_system):
    rng = np.random.default_rng(1)
    part = partition(ieee34_system, Placement((7, 19, 31)))
    model = build_central_model(part)
    d = _consistent_d(ieee34_system, rng)
    d_a = d[part.avail_columns]
    x0 = x_of(model, d_a)
    for c in (3.0, -2.0, 1j, 0.5 - 0.5j):
        assert x_of(model, c * d_a) == pytest.approx(x0, rel=1e-9)


def test_metric_phase_invariance_of_u(ieee34_system):
    from dataclasses import replace
    rng = np.random.default_rng(6)
    part = partition(ieee34_system, Placement((7, 19, 31)))
    model = build_central_model(part)
    rotated = replace(model, u_us=model.u_us * np.exp(1j * 0.7))
    d = _consistent_d(ieee34_system, rng)[part.avail_columns]
    assert x_of(rotated, d) == pytest.approx(x_of(model, d), rel=1e-12)


def test_metric_zero_vector_rejected(ieee34_system):
    part = partition(ieee34_system, Placement((7, 19, 31)))
    model = build_central_model(part)
    zero = np.zeros(18, dtype=complex)
    assert np.isnan(x_of(model, zero))
    got = []
    tracker = CentralChangeTracker(model, Config(), sink=lambda ks, x: got.extend(zip(ks, x)))
    tracker.step(_block([0], zero[None]))
    assert (tracker.skipped, tracker.gaps, got) == (1, 0, [])


def test_smallest_singular_skips_structural_zero_rows():
    m = np.zeros((4, 5), dtype=complex)
    m[0] = [1, 2, 3, 4, 5]
    m[1] = [2, 1, 0, 0, 1]
    m[3] = [0, 1, 1j, 2, 0]   # row 2 left all-zero
    u, smin = smallest_left_singular_vector(m)
    assert u[2] == 0.0
    assert smin > 0.0
    assert np.linalg.norm(np.conj(u) @ m) == pytest.approx(smin, abs=1e-12)


def test_fuse_frames_ordering_and_completeness(ieee34_system):
    part = partition(ieee34_system, Placement((7, 19, 31)))
    model = build_central_model(part)
    frames = {
        7: PhasorFrame(k=0, bus=7, v=np.full(3, 1 + 0j),
                       i_lines={"6-7": np.full(3, 0.1 + 0j), "7-8": np.full(3, 0.2 + 0j)}),
        31: PhasorFrame(k=0, bus=31, v=np.full(3, 2 + 0j), i_lines={}),
    }
    fused = fuse_streams(model, {b: [f] for b, f in frames.items()})
    assert fused.ks == [0]
    assert fused.complete.tolist() == [False]     # sensor 19 is missing
    d_a = fused.D[0]
    assert np.allclose(d_a[0:3], 0.3)      # injections of bus 7
    assert np.allclose(d_a[3:6], 0.0)      # missing sensor 19
    assert np.allclose(d_a[9:12], 1.0)     # voltage of bus 7
    assert np.allclose(d_a[15:18], 2.0)    # voltage of bus 31


def _fuse_reference(model, frames):
    """d_a as a loop over preallocated arrays builds it: the arithmetic
    fuse_frames must reproduce bit for bit."""
    n = len(model.sensor_buses)
    cur = np.zeros(3 * n, dtype=complex)
    vol = np.zeros(3 * n, dtype=complex)
    for j, b in enumerate(model.sensor_buses):
        f = frames.get(b)
        if f is None:
            continue
        inj = np.zeros(3, dtype=complex)
        for i in f.i_lines.values():
            inj += i
        cur[3 * j:3 * j + 3] = inj
        vol[3 * j:3 * j + 3] = f.v
    return np.concatenate([cur, vol])


def test_fuse_frames_matches_loop_reference_bitwise(ieee34_system):
    """Every row of a block, and the same sets fused one at a time, equal the
    loop reference, also where a sensor is missing or one of its frames has
    fewer lines than the others in the block."""
    model = build_central_model(partition(ieee34_system, Placement((7, 19, 31))))
    rng = np.random.default_rng(4)

    def c3():
        return rng.normal(size=3) * 10.0 ** rng.integers(-8, 8, size=3) + 1j * rng.normal(size=3)

    special = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 1.0)])
    released = []
    for trial in range(20):
        lines7 = {"6-7": special.copy(), "7-8": c3(), "7-9": c3()}
        if trial % 3 == 1:
            del lines7["7-9"]
        frames = {
            7: PhasorFrame(k=trial, bus=7, v=special.copy(), i_lines=lines7),
            19: PhasorFrame(k=trial, bus=19, v=c3(),
                            i_lines={"18-19": special.copy() if trial % 2 else c3()}),
            31: PhasorFrame(k=trial, bus=31, v=c3(), i_lines={}),
        }
        if trial % 4 == 2:
            del frames[19]
        released.append((trial, frames))
    streams = {b: [frames[b] for _, frames in released if b in frames]
               for b in model.sensor_buses}
    block = fuse_streams(model, streams)
    assert block.ks == list(range(20))
    assert block.complete.tolist() == [t % 4 != 2 for t in range(20)]
    for (_, frames), row in zip(released, block.D):
        assert row.tobytes() == _fuse_reference(model, frames).tobytes()
        alone = fuse_streams(model, {b: [f] for b, f in frames.items()})
        assert alone.D.tobytes() == row.tobytes()


def test_frame_columns_take_frames_in_k_order_and_the_last_of_one_k():
    """Columns of an unordered stream with a repeated k equal those of the
    stream sorted by k with only the later frame of that k."""
    from gridwatch.analytics import StreamColumns

    rng = np.random.default_rng(5)

    def frame(k):
        c3 = lambda: rng.normal(size=3) + 1j * rng.normal(size=3)
        return PhasorFrame(k=k, bus=7, v=c3(), i_lines={"6-7": c3(), "7-8": c3()})

    frames = [frame(k) for k in (4, 1, 3, 0, 2)]
    again = frame(3)
    got = StreamColumns.from_frames(frames + [again])
    want = StreamColumns.from_frames([frames[3], frames[1], frames[4], again, frames[0]])
    assert got.ks.tolist() == want.ks.tolist() == [0, 1, 2, 3, 4]
    assert got.vi.tobytes() == want.vi.tobytes()
    assert got.vi[3, 0].tobytes() == again.v.tobytes()
    for lid in ("6-7", "7-8"):
        assert got.lines[lid][1].tobytes() == want.lines[lid][1].tobytes()
        assert got.lines[lid][1][3].tobytes() == again.i_lines[lid].tobytes()


def _metric_models(ieee34_system):
    """One model per mode: smallest-singular on ieee34, and null-projector
    with P = I (every bus sensed) and with a proper projector (K > B/2)."""
    rng = np.random.default_rng(2)
    toy = build_system(toy_feeder(5, y=2.0 - 1.0j))
    sysm = build_system(random_radial_feeder(rng, n_bus=5, p_lateral=0.0))
    models = [build_central_model(partition(ieee34_system, Placement((7, 19, 31)))),
              build_central_model(partition(toy, Placement(toy.feeder.bus_ids))),
              build_central_model(partition(sysm, Placement((1, 2, 3, 4))))]
    assert [m.mode for m in models] == [SMALLEST_SINGULAR, NULL_PROJECTOR, NULL_PROJECTOR]
    return models


def test_central_xs_independent_of_block_length(ieee34_system):
    """A row's x is the same bits alone and inside blocks of any length."""
    rng = np.random.default_rng(12)
    for model in _metric_models(ieee34_system):
        cols = 6 * len(model.sensor_buses)
        scale = 10.0 ** rng.integers(-4, 4, size=(5000, cols))
        D = scale * (rng.normal(size=(5000, cols)) + 1j * rng.normal(size=(5000, cols)))
        alone = np.array([central_xs(model, D[r:r + 1])[0] for r in range(5000)])
        for length in (2, 7, 1024, 5000):
            cut = np.concatenate([central_xs(model, D[s:s + length])
                                  for s in range(0, 5000, length)])
            assert cut.tobytes() == alone.tobytes(), (model.mode, length)
        # and the block kernel is the subspace metric, to rounding
        if model.mode == SMALLEST_SINGULAR:
            y = D @ (np.conj(model.u_us) @ model.partition.H_a)
            ref = np.abs(y) ** 2
        else:
            r = D @ (model.null_projector @ model.partition.H_a).T
            ref = np.sum(np.abs(r) ** 2, axis=1)
        ref /= np.sum(np.abs(D) ** 2, axis=1)
        assert np.allclose(alone, ref, rtol=1e-10, atol=0.0)


def test_central_xs_nan_for_zero_or_non_finite_rows(ieee34_system):
    model = build_central_model(partition(ieee34_system, Placement((7, 19, 31))))
    D = np.ones((4, 18), dtype=complex)
    D[1] = 0.0
    D[2, 5] = complex(np.nan, 0.0)
    D[3, 0] = np.inf
    x = central_xs(model, D)
    assert np.isfinite(x[0]) and np.isnan(x[1:]).all()
    for row in D[1:]:
        assert np.isnan(x_of(model, row))


def _block(ks, D, complete=None):
    D = np.asarray(D, dtype=complex)
    complete = np.ones(len(ks), dtype=bool) if complete is None else np.asarray(complete)
    return FusedBlock(ks=list(ks), D=D, complete=complete)


def test_tracker_steady_stream_no_changes(ieee34_system):
    rng = np.random.default_rng(9)
    part = partition(ieee34_system, Placement((7, 19, 31)))
    model = build_central_model(part)
    tracker = CentralChangeTracker(model, Config())
    d = _consistent_d(ieee34_system, rng)
    da = d[part.avail_columns]
    for k in range(500):
        recs = tracker.step(_block([k], da[None]))
        assert recs == []
    assert tracker.finish() == []


def test_tracker_counts_gaps(ieee34_system):
    part = partition(ieee34_system, Placement((7, 19, 31)))
    model = build_central_model(part)
    tracker = CentralChangeTracker(model, Config())
    tracker.step(_block([0], np.zeros((1, 18)), [False]))
    assert tracker.gaps == 1
    assert tracker.skipped == 0


def test_tracker_skips_non_finite_samples(monkeypatch):
    """A NaN x is skipped and counted; the detector goes on as if the sample
    had never come, so a later step still opens its record."""
    from gridwatch import central
    monkeypatch.setattr(central, "central_xs", lambda model, D: D[:, 0].real.copy())
    rng = np.random.default_rng(8)
    xs = rng.normal(size=2000)
    xs[1000:1100] += 50.0

    def run(ks, xs):
        tracker = CentralChangeTracker(None, Config())
        recs = tracker.step(_block(ks, xs[:, None]))
        return recs + tracker.finish(), tracker.skipped

    with_nan = xs.copy()
    with_nan[500] = np.nan
    got, skipped = run(range(2000), with_nan)
    kept = [k for k in range(2000) if k != 500]
    assert (got, skipped) == (run(kept, xs[kept])[0], 1)
    assert any(r.start_k == 1000 for r in got)


def test_tracker_skips_non_finite_measurements(ieee34_system):
    """Zero and non-finite d_a are counted in `skipped` and give no x row."""
    rng = np.random.default_rng(10)
    part = partition(ieee34_system, Placement((7, 19, 31)))
    model = build_central_model(part)
    D = np.tile(_consistent_d(ieee34_system, rng)[part.avail_columns], (5, 1))
    D[1] = 0.0
    D[3, 2] = complex(np.nan, np.nan)
    got = []
    tracker = CentralChangeTracker(model, Config(), sink=lambda ks, x: got.extend(zip(ks, x)))
    tracker.step(_block(range(5), D, [True, True, True, True, False]))
    assert (tracker.skipped, tracker.gaps) == (2, 1)
    assert [k for k, _ in got] == [0, 2]
    assert all(np.isfinite(x) for _, x in got)


def test_offline_run_counts_opposite_infinities(ieee34):
    """A frame whose line currents are +inf and -inf sums to NaN without a
    numpy warning; the central engine skips and counts that sample."""
    import warnings
    from gridwatch.pipeline import run_offline
    from gridwatch.synth import Scenario, generate
    from conftest import scenario_path

    sc = Scenario.from_json(scenario_path("quiet").read_text())
    streams, _ = generate(sc, ieee34)
    central = dict(streams)
    central[7] = list(streams[7])
    f = central[7][10]
    inf = np.full(3, complex(np.inf, np.inf))
    central[7][10] = PhasorFrame(k=f.k, bus=7, v=f.v, i_lines={"6-7": inf, "7-8": -inf})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_offline(ieee34, Placement(sc.sensors), streams, central)
    assert (res.skipped, res.gaps) == (1, 0)
    assert f.k not in [k for k, _ in res.xs] and len(res.xs) == len(streams[7]) - 1


def _fused_stream(ieee34):
    """The fault_at_sensor scenario's samples fused by k, with more noise,
    sensor 19 missing at some samples and a NaN frame at another."""
    from dataclasses import replace
    from gridwatch.synth import Scenario, generate
    from conftest import scenario_path

    sc = Scenario.from_json(scenario_path("fault_at_sensor").read_text())
    streams, _ = generate(replace(sc, noise_sigma=1e-3), ieee34)
    streams[19] = [f for f in streams[19] if f.k not in (40, 41, 450)]
    f = streams[7][300]
    streams[7][300] = PhasorFrame(k=f.k, bus=7, v=np.full(3, complex(np.nan, 0.0)),
                                  i_lines=f.i_lines)
    model = build_central_model(partition(build_system(ieee34), Placement(sc.sensors)))
    return model, fuse_streams(model, streams)


def _track(model, fused, cuts):
    xs = []
    tracker = CentralChangeTracker(model, Config(t2=1),
                                   sink=lambda ks, x: xs.extend(zip(ks, x)))
    recs = []
    for a, b in zip([0] + cuts, cuts + [len(fused.ks)]):
        recs += tracker.step(_block(fused.ks[a:b], fused.D[a:b], fused.complete[a:b]))
    recs += tracker.finish()
    return xs, recs, (tracker.gaps, tracker.skipped)


def test_tracker_independent_of_block_cuts(ieee34):
    """One fused stream in blocks of one, in random cuts and in one block
    gives the same x series, records, change points and counters."""
    model, fused = _fused_stream(ieee34)
    n = len(fused.ks)
    ref = _track(model, fused, list(range(1, n)))
    assert any(r.end_k is None for r in ref[1])           # a persistent emission
    assert any(len(r.change_ks) > 1 for r in ref[1])
    assert ref[2] == (3, 1)
    rng = np.random.default_rng(0)
    for _ in range(3):
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=40, replace=False))
        assert _track(model, fused, cuts) == ref
    assert _track(model, fused, []) == ref


def test_tracker_memory_flat_over_long_runs(ieee34_system):
    """The tracker keeps no per-sample history: 100k samples retain what
    2k do."""
    import tracemalloc

    model = build_central_model(partition(ieee34_system, Placement((7, 19, 31))))

    def run(n):
        rng = np.random.default_rng(1)
        tracker = CentralChangeTracker(model, Config())
        for s in range(0, n, 1000):
            D = rng.normal(size=(1000, 18)) + 1j * rng.normal(size=(1000, 18))
            tracker.step(_block(range(s, s + 1000), D))
        return tracker

    def retained(n):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = run(n)
            grown = tracemalloc.get_traced_memory()[0] - before
            del kept
            return grown
        finally:
            tracemalloc.stop()

    growth = retained(100_000) - retained(2_000)
    assert growth < 50_000, growth


# ---------------------------------------------------------------- fusion

def rep(bus, start, end, rule="voltage_mag", label="sag"):
    return AnomalyReport(rule=rule, label=label, bus=bus, line=None,
                         start_k=start, end_k=end, severity=1.0)


def test_fuse_overlapping_sags_one_incident():
    log = fuse_reports([("7", rep(7, 100, 200)), ("19", rep(19, 150, 260))], [])
    assert len(log.entries) == 2
    assert log.entries[0].incident == log.entries[1].incident


def test_fuse_disjoint_events_distinct_incidents():
    log = fuse_reports([("7", rep(7, 100, 120)), ("19", rep(19, 500, 520))], [])
    assert log.entries[0].incident != log.entries[1].incident


def test_fuse_persistent_then_close_updates():
    persistent = rep(7, 100, None)
    closed = rep(7, 100, 300)
    log = fuse_reports([("7", persistent), ("7", closed)], [])
    assert len(log.entries) == 1
    assert log.entries[0].record.end_k == 300


def test_fuse_merges_central_records():
    central = [CentralChangeRecord(start_k=110, end_k=115, change_ks=(110,), severity=3.0)]
    log = fuse_reports([("7", rep(7, 100, 200))], central)
    assert {e.origin for e in log.entries} == {"7", "central"}
    assert len({e.incident for e in log.entries}) == 1


def test_eventlog_jsonl_roundtrip():
    central = [CentralChangeRecord(start_k=1, end_k=None, change_ks=(1, 2), severity=0.5)]
    log = fuse_reports([("7", rep(7, 0, 10))], central)
    text = log.to_jsonl()
    back = EventLog.from_jsonl(text)
    assert back.to_jsonl() == text


def test_consistency_bound_on_bundled_steady_state(ieee34):
    """Steady-state x never exceeds the sigma_min^2 worst case over d."""
    import numpy as np
    from gridwatch.synth import Scenario, generate
    from conftest import scenario_path

    sc = Scenario.from_json(scenario_path("quiet").read_text())
    streams, _ = generate(sc, ieee34)
    # full-network vector for the bound needs every bus
    from dataclasses import replace
    sc_all = replace(sc, sensors=ieee34.bus_ids, duration_s=0.5)
    streams_all, _ = generate(sc_all, ieee34)
    part = partition(build_system(ieee34), Placement((7, 19, 31)))
    model = build_central_model(part)

    B = ieee34.bus_count
    d = np.zeros(6 * B, dtype=complex)
    for b, s in streams_all.items():
        i = ieee34.index_of(b)
        f = s[0]
        inj = sum(f.i_lines.values()) if f.i_lines else np.zeros(3, dtype=complex)
        d[3 * i:3 * i + 3] = inj
        d[3 * B + 3 * i:3 * B + 3 * i + 3] = f.v
    d_u = d[part.unavail_columns]
    d_a = d[part.avail_columns]
    bound = model.sigma_min ** 2 * float(np.vdot(d_u, d_u).real / np.vdot(d_a, d_a).real)
    x = x_of(model, d_a)
    assert x <= bound * (1 + 1e-9)
