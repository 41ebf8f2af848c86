import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch import central
from gridwatch.analytics import (OVERCURRENT, QSS_VALIDITY, VOLTAGE_MAG, DetectorState,
                                 EventSegmenter, FrequencyTracker, LocalEngine,
                                 PhasorFrame, check_overcurrent, classify_trend,
                                 classify_voltage, complex_power, cusum_step,
                                 positive_sequence, qss_residuals, segment_events,
                                 window_correlations)
from gridwatch.config import Config


# ---------------------------------------------------------------- power

def test_complex_power_unity_pf():
    p, q = complex_power(np.ones(3, dtype=complex), np.ones(3, dtype=complex))
    assert np.allclose(p, 1.0) and np.allclose(q, 0.0)


def test_complex_power_pure_reactive_sign():
    v = np.array([1.0, 0, 0], dtype=complex)
    i = np.array([1j, 0, 0], dtype=complex)
    p, q = complex_power(v, i)
    assert np.allclose(p, 0.0)
    assert q[0] == pytest.approx(-1.0)


def test_complex_power_random_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        i = rng.normal(size=3) + 1j * rng.normal(size=3)
        p, q = complex_power(v, i)
        for ph in range(3):
            s = v[ph] * np.conj(i[ph])  # direct per-phase oracle
            assert p[ph] == pytest.approx(s.real, abs=1e-15)
            assert q[ph] == pytest.approx(s.imag, abs=1e-15)


# ---------------------------------------------------------------- voltage rule

def test_classify_sag_one_second():
    label, tau = classify_voltage(np.full(120, 0.5))
    assert label == "sag" and tau == 120


def test_classify_sustained_interruption():
    label, _ = classify_voltage(np.full(120 * 120, 0.05))
    assert label == "sustained_interruption"


def test_classify_nominal_none():
    label, _ = classify_voltage(np.full(1000, 1.0))
    assert label is None


def test_classify_out_of_table_swell():
    label, _ = classify_voltage(np.full(120, 2.5))
    assert label == "swell"


# ---------------------------------------------------------------- overcurrent

def test_overcurrent_boundary_allows_rated():
    rating = np.array([1.0, 1.0, 1.0])
    assert not check_overcurrent(np.array([1.0, 1.0, 1.0]), rating).any()


def test_overcurrent_flags_above():
    rating = np.array([1.0, 1.0, 1.0])
    flags = check_overcurrent(np.array([1.01, 0.5, 1.0]), rating)
    assert flags.tolist() == [True, False, False]


def test_overcurrent_absent_phase_never():
    rating = np.array([0.0, 1.0, 0.0])
    flags = check_overcurrent(np.array([5.0, 0.5, 5.0]), rating)
    assert not flags[0] and not flags[2]


# ---------------------------------------------------------------- frequency

def balanced(mag=1.0):
    return mag * np.exp(1j * np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3]))


def drift(v_frames) -> float:
    """beta_hat of a fresh tracker after a series of voltage frames."""
    tr = FrequencyTracker()
    tr.track(positive_sequence(np.array(v_frames)).tolist())
    return tr.beta_hat


def test_frequency_constant_rotation():
    beta = 2 * np.pi * 0.1 / 120.0
    frames = [balanced() * np.exp(1j * beta * k) for k in range(200)]
    assert drift(frames) == pytest.approx(beta, abs=1e-9)


def test_frequency_constant_phasors_zero():
    frames = [balanced()] * 50
    assert drift(frames) == 0.0


def test_frequency_step_response_half_life():
    lam = 0.99
    beta1 = 2 * np.pi * 5 / 120.0
    tr = FrequencyTracker(lam)
    prev = balanced()
    vs = [prev] * 101   # settle at zero drift
    v = prev
    for n in range(1, 300):
        v = v * np.exp(1j * beta1)
        vs.append(v)
    betas = tr.track(positive_sequence(np.array(vs)).tolist())[101:]
    crossed = next((n for n, b in enumerate(betas, start=1) if b >= beta1 / 2), None)
    assert crossed is not None
    assert crossed <= int(np.ceil(np.log(2) / (1 - lam)))


def test_frequency_zero_sequence_holds_estimate():
    tr = FrequencyTracker()
    beta = 0.01
    vs = [balanced()]
    for _ in range(5):
        vs.append(vs[-1] * np.exp(1j * beta))
    tr.track(positive_sequence(np.array(vs)).tolist())
    held = tr.beta_hat
    tr.track(positive_sequence(np.zeros(3, dtype=complex)).tolist())
    assert tr.beta_hat == held
    assert tr.quality_drops == 1


# ---------------------------------------------------------------- correlations

def correlations(vs, i_s, m):
    """[R_iv; R_vv] of the window of the last m frames, or None before m."""
    R = window_correlations(np.array(vs)[-m:], np.array(i_s)[-m:], m)
    return R[0] if len(R) else None


def test_qss_correlations_constant_outer_product():
    m = 12
    v = balanced()
    i = 0.3 * balanced()
    R = correlations([v] * m, [i] * m, m)
    scale = m / (m - 1)
    assert np.allclose(R[:3], scale * np.outer(i, np.conj(v)))
    assert np.allclose(R[3:], scale * np.outer(v, np.conj(v)))
    s = np.linalg.svd(R, compute_uv=False)
    assert s[1] / s[0] < 1e-14


def test_qss_correlations_two_sample_hand_values():
    v1 = np.array([1.0, 0, 0], dtype=complex)
    i1 = np.array([2.0, 0, 0], dtype=complex)
    v2 = np.array([0, 1.0j, 0], dtype=complex)
    i2 = np.array([0, 3.0, 0], dtype=complex)
    R = correlations([v1, v2], [i1, i2], 2)
    # 1/(M-1) = 1: R_iv = i1 v1^H + i2 v2^H, computed by hand
    expect_iv = np.zeros((3, 3), dtype=complex)
    expect_iv[0, 0] = 2.0
    expect_iv[1, 1] = 3.0 * np.conj(1.0j)
    assert np.allclose(R[:3], expect_iv)
    expect_vv = np.zeros((3, 3), dtype=complex)
    expect_vv[0, 0] = 1.0
    expect_vv[1, 1] = 1.0
    assert np.allclose(R[3:], expect_vv)


def test_qss_correlations_requires_full_window():
    assert correlations([balanced()], [balanced()], 4) is None


# ---------------------------------------------------------------- residual

def qss_residual(R) -> float:
    return float(qss_residuals(np.asarray(R, dtype=complex)[None])[0])


def test_qss_residual_rank_one_zero():
    a = np.arange(1, 7, dtype=complex) + 1j
    b = np.array([2.0, -1.0, 0.5], dtype=complex)
    assert qss_residual(np.outer(a, b)) <= 1e-12 * np.linalg.norm(np.outer(a, b)) ** 2


def test_qss_residual_known_singular_values():
    # build R with singular values (2, 1, 0) from orthonormal vectors
    u1 = np.zeros(6); u1[0] = 1.0
    u2 = np.zeros(6); u2[1] = 1.0
    v1 = np.array([1.0, 0, 0]); v2 = np.array([0, 1.0, 0])
    R = 2.0 * np.outer(u1, v1) + 1.0 * np.outer(u2, v2)
    assert qss_residual(R) == pytest.approx(1.0, rel=1e-12)


def _residual_direct_minimization(R):
    """Brute-force Eq.-style oracle: minimize over unit u with many restarts."""
    from scipy.optimize import minimize
    A = R @ R.conj().T

    def cost(x):
        u = x[:6] + 1j * x[6:]
        n = np.linalg.norm(u)
        if n < 1e-12:
            return np.linalg.norm(A, "fro")
        u = u / n
        M = A - np.outer(u, np.conj(u) @ A)
        return np.linalg.norm(M, "fro")

    best = np.inf
    rng = np.random.default_rng(5)
    for _ in range(12):
        x0 = rng.normal(size=12)
        res = minimize(cost, x0, method="Nelder-Mead",
                       options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12})
        best = min(best, res.fun)
    return best


def test_qss_residual_matches_direct_minimization():
    rng = np.random.default_rng(7)
    R = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    assert qss_residual(R) == pytest.approx(_residual_direct_minimization(R), abs=1e-6)


def test_qss_residual_closed_form_equals_projector_route():
    rng = np.random.default_rng(9)
    for _ in range(20):
        R = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        u, s, vh = np.linalg.svd(R)
        A = R @ R.conj().T
        proj = np.eye(6) - np.outer(u[:, 0], np.conj(u[:, 0]))
        direct = np.linalg.norm(proj @ A, "fro")
        assert qss_residual(R) == pytest.approx(direct, rel=1e-10)


def test_qss_residual_zero_matrix():
    assert qss_residual(np.zeros((6, 3))) == 0.0


# ---------------------------------------------------------------- cusum

def test_cusum_accumulators_never_negative():
    rng = np.random.default_rng(1)
    st_ = DetectorState()
    for x in rng.normal(size=3000):
        changed = cusum_step(st_, float(x))
        assert st_.g_plus >= 0.0 and st_.g_minus >= 0.0
        if changed:
            assert st_.g_plus == 0.0 and st_.g_minus == 0.0


def test_cusum_constant_input_never_alarms():
    st_ = DetectorState()
    assert not any(cusum_step(st_, 3.25) for _ in range(10000))
    assert st_.var_hat <= st_.var_floor


def test_cusum_step_detected_quickly():
    st_ = DetectorState()
    rng = np.random.default_rng(2)
    for x in rng.normal(size=st_.warmup):
        cusum_step(st_, float(x))
    assert st_.armed
    hits = [cusum_step(st_, float(x)) for x in rng.normal(loc=5.0, size=10)]
    assert any(hits)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_cusum_invariants_hypothesis(xs):
    st_ = DetectorState(warmup=5)
    for x in xs:
        changed = cusum_step(st_, x)
        assert st_.g_plus >= 0.0 and st_.g_minus >= 0.0
        if changed:
            assert st_.g_plus == 0.0 and st_.g_minus == 0.0


# ---------------------------------------------------------------- trend

def test_trend_ramp_up_is_surge():
    sig = np.concatenate([np.zeros(30), np.linspace(0, 1, 30)])
    assert classify_trend(sig, 30, 24) == "surge"


def test_trend_step_down_is_drop():
    sig = np.concatenate([np.ones(30), np.linspace(1, 0, 30)])
    assert classify_trend(sig, 30, 24) == "drop"


def test_trend_sinusoid_onset_is_oscillation():
    k = np.arange(48)
    post = 0.5 * np.sin(2 * np.pi * k / 6.0)
    sig = np.concatenate([np.zeros(48), post])
    assert classify_trend(sig, 48, 48, slope_min=0.05) == "oscillation"


def test_trend_needs_three_samples():
    with pytest.raises(ValueError):
        classify_trend(np.zeros(10), 9, 24)


# ---------------------------------------------------------------- segmentation

def test_segment_isolated_violation():
    t1 = 10
    flags = [False] * 5 + [True] + [False] * 30
    events = segment_events(flags, t1=t1, t2=100)
    assert events == [(5, 5)]


def test_segment_persistent_then_close():
    t1, t2 = 10, 20
    flags = [True] * 40 + [False] * 30
    events = segment_events(flags, t1=t1, t2=t2)
    # persistent emission once count exceeds t2 (at sample t2), close after quiet
    assert events == [(0, None), (0, 39)]


def test_segment_persistent_emitted_at_t2():
    t2 = 20
    seg = EventSegmenter(t1=10, t2=t2)
    emitted = []
    for k in range(40):
        emitted += [(k, s.end_k) for s in seg.step(k, True)]
    assert emitted == [(t2, None)]


def test_segment_two_bursts_two_events():
    flags = [True] * 3 + [False] * 20 + [True] * 2 + [False] * 20
    events = segment_events(flags, t1=10, t2=100)
    assert events == [(0, 2), (23, 24)]


def test_segment_deterministic():
    rng = np.random.default_rng(4)
    flags = list(rng.random(500) < 0.1)
    a = segment_events(flags, t1=7, t2=12)
    b = segment_events(flags, t1=7, t2=12)
    assert a == b


def test_segment_flush_closes_open_event():
    events = segment_events([False, True, True], t1=100, t2=100)
    assert events == [(1, 2)]


# ---------------------------------------------------------------- report severities and labels

def _engine_reports(eng, frames, rule):
    reps = []
    for f in frames:
        reps += eng.step(f)
    return [r for r in reps + eng.finish() if r.rule == rule]


def _phase_a_frames(mags_a, i_lines=None):
    """Frames whose phase-a voltage magnitude follows mags_a."""
    nominal = balanced()
    return [PhasorFrame(k=k, bus=3, v=np.array([m, nominal[1], nominal[2]]),
                        i_lines={} if i_lines is None else i_lines(k))
            for k, m in enumerate(mags_a)]


def test_voltage_severity_is_first_extremum_mid_event():
    # 0.5 and 1.5 tie on |v - 1|; the first one decides the label. The
    # second, shallower event starts its own extremum.
    mags = [1.0] * 10 + [0.8, 0.5, 0.7, 1.5, 0.6] + [1.0] * 10 + [0.85, 0.8] + [1.0] * 10
    reps = _engine_reports(LocalEngine(3, {}, Config(t1=5)), _phase_a_frames(mags),
                           VOLTAGE_MAG)
    assert [(r.label, r.start_k, r.end_k, r.severity) for r in reps] == [
        ("sag", 10, 14, 0.5), ("sag", 25, 26, 0.8)]


def test_voltage_persistent_record_uses_its_own_span():
    # the persistent emission at the 11th violation (k=15) spans 11 samples,
    # longer than the 6-sample sustained limit: undervoltage, not sag
    cfg = Config(t1=5, t2=10, v_sustained_s=0.05)
    mags = [1.0] * 5 + [0.6] * 4 + [0.5] + [0.6] * 6 + [0.3] + [0.6] * 3 + [1.0] * 10
    reps = _engine_reports(LocalEngine(3, {}, cfg), _phase_a_frames(mags), VOLTAGE_MAG)
    assert [(r.label, r.start_k, r.end_k, r.severity) for r in reps] == [
        ("undervoltage", 5, None, 0.5), ("undervoltage", 5, 19, 0.3)]


def test_overcurrent_severity_is_peak_over_rating():
    ia = [1.0] * 20 + [2.5, 5.0, 3.0] + [1.0] * 10
    # phase c carries no rating, so its large current never flags
    reps = _engine_reports(
        LocalEngine(3, {"3-4": np.array([2.0, 1.0, 0.0])}, Config(t1=5)),
        _phase_a_frames([1.0] * len(ia),
                        lambda k: {"3-4": np.array([ia[k], 0.5, 9.0], dtype=complex)}),
        OVERCURRENT)
    assert [(r.line, r.start_k, r.end_k, r.severity) for r in reps] == [
        ("3-4", 20, 22, 2.5)]


def test_qss_events_are_transient():
    # a phase-a step at k=60 mixes two voltage directions in the window
    mags = [1.0] * 60 + [0.5] * 60
    frames = _phase_a_frames(mags, lambda k: {"3-4": 0.5 * np.array([mags[k], 1, 1])})
    eng = LocalEngine(3, {"3-4": np.ones(3)}, Config(warmup=10, t1=5))
    reps = _engine_reports(eng, frames, QSS_VALIDITY)
    assert [(r.label, r.start_k, r.end_k) for r in reps] == [
        ("transient", 60, 60), ("transient", 73, 73)]


def test_central_change_ks_persistent_then_closed(monkeypatch):
    monkeypatch.setattr(central, "central_xs", lambda model, D: D[:, 0].real.copy())
    cfg = Config(warmup=5, t1=40, t2=2)
    rng = np.random.default_rng(3)
    xs = rng.normal(size=400) + np.concatenate(
        [np.zeros(100), np.tile([40.0] * 8 + [0.0] * 8, 2), np.zeros(168), np.full(100, 40.0)])
    det = DetectorState.from_config(cfg)
    ks = [k for k, x in enumerate(xs) if cusum_step(det, x)]
    # two clusters: a persistent one from the square wave, then a short one
    first, second = [k for k in ks if k < 250], [k for k in ks if k >= 250]
    assert len(first) > cfg.t2 + 1 and 0 < len(second) <= cfg.t2
    assert second[0] - first[-1] > cfg.t1

    tracker = central.CentralChangeTracker(None, cfg)
    recs = []
    for k, x in enumerate(xs):
        recs += tracker.step(central.FusedBlock(ks=[k], D=np.array([[x + 0j]]),
                                                complete=np.array([True])))
    recs += tracker.finish()
    assert [(r.start_k, r.end_k, r.change_ks) for r in recs] == [
        (first[0], None, tuple(first[:cfg.t2 + 1])), (first[0], first[-1], tuple(first)),
        (second[0], second[-1], tuple(second))]


# ---------------------------------------------------------------- memory

def _retained_bytes(run) -> int:
    """Bytes still allocated after run(), while its result is kept alive."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = run()
        retained = tracemalloc.get_traced_memory()[0] - before
        del kept
        return retained
    finally:
        tracemalloc.stop()


def _interruption(n):
    eng = LocalEngine(3, {}, Config())
    v = balanced(0.05)
    for k in range(n):
        eng.step(PhasorFrame(k=k, bus=3, v=v, i_lines={}))
    return eng


def _violations(n):
    seg = EventSegmenter(t1=10, t2=240)
    for k in range(n):
        seg.step(k, True)
    return seg


def test_memory_flat_over_long_events():
    """An event's state does not grow with its length: all three phases in
    interruption for 20k frames retain what 2k frames do, and so does a
    segmenter after 120k violations."""
    engine = _retained_bytes(lambda: _interruption(20_000)) - _retained_bytes(
        lambda: _interruption(2_000))
    segmenter = _retained_bytes(lambda: _violations(120_000)) - _retained_bytes(
        lambda: _violations(2_000))
    assert engine < 50_000 and segmenter < 50_000, (engine, segmenter)
