import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch import central
from gridwatch.analytics import (OVERCURRENT, QSS_VALIDITY, VOLTAGE_MAG, DetectorState,
                                 EventSegmenter, FrequencyTracker, LocalEngine,
                                 PhasorFrame, Segment, StreamColumns, check_overcurrent,
                                 classify_trend, classify_voltage, complex_power, cusum_run,
                                 positive_sequence, qss_residuals, window_correlations)
from gridwatch.analytics import _slope, _variance
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
    assert classify_voltage(0.5, 120, Config()) == "sag"


def test_classify_sustained_interruption():
    assert classify_voltage(0.05, 120 * 120, Config()) == "sustained_interruption"


def test_classify_nominal_none():
    assert classify_voltage(1.0, 1000, Config()) is None


def test_classify_out_of_table_swell():
    assert classify_voltage(2.5, 120, Config()) == "swell"


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
    tr = FrequencyTracker(Config().lambda_forget)
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
    tr = FrequencyTracker(Config().lambda_forget)
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

def test_rule_defaults_are_the_config_defaults():
    """The detector defaults to `Config`'s values, and those to criterion
    8's pinned nu = 0.5 and h = 5."""
    assert DetectorState().cfg == Config()
    assert (DetectorState().cfg.nu, DetectorState().cfg.h) == (0.5, 5.0)


def test_cusum_accumulators_never_negative():
    rng = np.random.default_rng(1)
    st_ = DetectorState()
    for x in rng.normal(size=3000).tolist():
        alarms, _ = cusum_run(st_, (x,))
        assert st_.g_plus >= 0.0 and st_.g_minus >= 0.0
        if alarms:
            assert st_.g_plus == 0.0 and st_.g_minus == 0.0


def test_cusum_constant_input_never_alarms():
    st_ = DetectorState()
    alarms, _ = cusum_run(st_, [3.25] * 10000)
    assert not alarms
    assert st_.var_hat <= st_.cfg.var_floor


def test_cusum_detects_a_step_quickly():
    st_ = DetectorState()
    rng = np.random.default_rng(2)
    cusum_run(st_, rng.normal(size=st_.cfg.warmup).tolist())
    assert st_.armed
    hits, _ = cusum_run(st_, rng.normal(loc=5.0, size=10).tolist())
    assert hits


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_cusum_invariants_hypothesis(xs):
    st_ = DetectorState(Config(warmup=5))
    for x in xs:
        alarms, _ = cusum_run(st_, (x,))
        assert st_.g_plus >= 0.0 and st_.g_minus >= 0.0
        if alarms:
            assert st_.g_plus == 0.0 and st_.g_minus == 0.0


# ---------------------------------------------------------------- trend

def test_trend_ramp_up_is_surge():
    sig = np.concatenate([np.zeros(30), np.linspace(0, 1, 30)])
    assert classify_trend(sig, 30, Config(trend_window=24)) == "surge"


def test_trend_step_down_is_drop():
    sig = np.concatenate([np.ones(30), np.linspace(1, 0, 30)])
    assert classify_trend(sig, 30, Config(trend_window=24)) == "drop"


def test_trend_sinusoid_onset_is_oscillation():
    k = np.arange(48)
    post = 0.5 * np.sin(2 * np.pi * k / 6.0)
    sig = np.concatenate([np.zeros(48), post])
    assert classify_trend(sig, 48, Config(trend_window=48, slope_min=0.05)) == "oscillation"


def test_trend_needs_three_samples():
    with pytest.raises(ValueError):
        classify_trend(np.zeros(10), 9, Config(trend_window=24))


def _trend_reference(sig, change_index, window, slope_min, variance_ratio):
    """classify_trend's slope, variances and label from np.polyfit and np.var."""
    post = sig[change_index:change_index + window]
    slope = float(np.polyfit(np.arange(len(post)), post, 1)[0])
    pre = sig[max(0, change_index - window):change_index]
    pre_var = float(np.var(pre)) if len(pre) >= 2 else 0.0
    post_var = float(np.var(post))
    if slope > slope_min:
        label = "surge"
    elif slope < -slope_min:
        label = "drop"
    elif post_var > variance_ratio * max(pre_var, 1e-300):
        label = "oscillation"
    else:
        label = "surge" if slope >= 0 else "drop"
    return slope, pre_var, post_var, label


@given(st.integers(0, 2**32 - 1), st.sampled_from(["noise", "constant", "tiny", "ramp"]),
       st.sampled_from([1e-4, 1.0, math.inf]))
@settings(max_examples=100, deadline=None)
def test_trend_fit_matches_polyfit_and_var_bit_for_bit(seed, kind, slope_min):
    rng = np.random.default_rng(seed)
    cfg = Config(trend_window=48, slope_min=slope_min, variance_ratio=2.0)
    for _ in range(20):
        n_pre, n_post = int(rng.integers(0, 49)), int(rng.integers(3, 49))
        level = rng.normal(scale=10.0 ** rng.integers(-3, 4))
        n = n_pre + n_post
        sig = {"noise": lambda: level + rng.normal(size=n),
               "constant": lambda: np.full(n, level),
               "tiny": lambda: level + 1e-13 * rng.normal(size=n),
               "ramp": lambda: level + rng.normal() * np.arange(n)}[kind]()
        post, pre = sig[n_pre:], sig[:n_pre]
        slope, pre_var, post_var, label = _trend_reference(sig, n_pre, 48, slope_min, 2.0)
        got = (_slope(post), _variance(pre) if n_pre >= 2 else 0.0, _variance(post))
        assert struct.pack("<3d", *got) == struct.pack("<3d", slope, pre_var, post_var)
        assert classify_trend(sig, n_pre, cfg) == label


# ---------------------------------------------------------------- segmentation

def _events(flags, t1: int, t2: int):
    """(start, end or None) of each emission of a flag sequence, flushed."""
    seg = EventSegmenter(t1, t2)
    n = len(flags)
    emitted = [s for _, s in seg.run(np.arange(n), np.flatnonzero(flags), np.zeros(n))]
    return [(s.start_k, s.end_k) for s in emitted + seg.flush()]


def test_segment_isolated_violation():
    t1 = 10
    flags = [False] * 5 + [True] + [False] * 30
    events = _events(flags, t1=t1, t2=100)
    assert events == [(5, 5)]


def test_segment_persistent_then_close():
    t1, t2 = 10, 20
    flags = [True] * 40 + [False] * 30
    events = _events(flags, t1=t1, t2=t2)
    # persistent emission once count exceeds t2 (at sample t2), close after quiet
    assert events == [(0, None), (0, 39)]


def test_segment_persistent_emitted_at_t2():
    t2 = 20
    seg = EventSegmenter(t1=10, t2=t2)
    emitted = [(j, s.end_k) for j, s in seg.run(np.arange(40), np.arange(40), np.zeros(40))]
    assert emitted == [(t2, None)]


def test_segment_two_bursts_two_events():
    flags = [True] * 3 + [False] * 20 + [True] * 2 + [False] * 20
    events = _events(flags, t1=10, t2=100)
    assert events == [(0, 2), (23, 24)]


def test_segment_deterministic():
    rng = np.random.default_rng(4)
    flags = list(rng.random(500) < 0.1)
    a = _events(flags, t1=7, t2=12)
    b = _events(flags, t1=7, t2=12)
    assert a == b


def test_segment_flush_closes_open_event():
    events = _events([False, True, True], t1=100, t2=100)
    assert events == [(1, 2)]


class ScalarSegmenter(EventSegmenter):
    """The segmentation state machine one sample at a time: the reference
    that `EventSegmenter.run`, driven by violation positions, must match.
    With `span` the peak comes from all of an event's samples up to the
    one that closes it, without from its violations alone."""

    def __init__(self, t1: int, t2: int, span: bool):
        super().__init__(t1, t2)
        self.span = span

    def run(self, ks, flags, keys, values, opens=None):
        t1, persist, span = self.t1, self.t2 + 1, self.span
        is_open, start, last, count = self._open, self._start, self._last, self._count
        best, peak = self._key, self._peak
        out = []
        for j, (k, violated, key, value) in enumerate(zip(ks, flags, keys, values)):
            if violated:
                if not is_open:
                    is_open, start, count, best, peak = True, k, 0, key, value
                    if opens is not None:
                        opens.append(j)
                elif key > best:
                    best, peak = key, value
                count += 1
                last = k
                if count == persist:
                    out.append((j, Segment(start, None, k, peak)))
            elif is_open:
                if span and key > best:
                    best, peak = key, value
                if k - last >= t1:
                    is_open = False
                    out.append((j, Segment(start, last, last, peak)))
        self._open, self._start, self._last, self._count = is_open, start, last, count
        self._key, self._peak = best, peak
        return out


def _state(seg):
    """A segmenter's state, its floats as bits (NaN included)."""
    return (seg._open, seg._start, seg._last, seg._count,
            struct.pack("<2d", seg._key, seg._peak))


@st.composite
def violation_columns(draw):
    """A column (ks, flags, keys, values) cut into blocks, with T1, T2 and span."""
    t1 = draw(st.integers(1, 8))
    n = draw(st.integers(0, 120))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, t1 - 1 or 1, t1, t1 + 1, 3 * t1]),
                          min_size=n, max_size=n))
    ks = np.cumsum(steps, dtype=np.uint64)
    if n and draw(st.booleans()):   # the top of the u64 range
        ks += np.uint64(2**64 - 1) - ks[-1]
    density = draw(st.sampled_from([0.05, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flags = rng.random(n) < density
    keys = np.array(draw(st.lists(st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 2.0, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True)), min_size=n, max_size=n)), dtype=float)
    values = np.arange(n) + 0.5   # which sample the peak came from
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    return ks, flags, keys, values, t1, draw(st.integers(0, 6)), draw(st.booleans()), cuts


@given(violation_columns())
@settings(max_examples=200, deadline=None)
def test_segmenter_matches_scalar_oracle_under_block_cuts(case):
    ks, flags, keys, values, t1, t2, span, cuts = case
    got, want = EventSegmenter(t1, t2), ScalarSegmenter(t1, t2, span)
    # without span the oracle's peak skips the non-violations; the
    # segmenter gets NaN keys there instead
    masked = keys if span else np.where(flags, keys, math.nan)
    got_out, want_out, got_opens, want_opens = [], [], [], []
    for a, b in zip([0] + cuts, cuts + [len(ks)]):
        opens = []
        got_out += [(a + j, s) for j, s in got.run(ks[a:b], np.flatnonzero(flags[a:b]),
                                                   masked[a:b], values[a:b], opens)]
        got_opens += [a + j for j in opens]
        opens = []
        want_out += [(a + j, s) for j, s in want.run(ks[a:b].tolist(), flags[a:b].tolist(),
                                                     keys[a:b].tolist(), values[a:b].tolist(),
                                                     opens)]
        want_opens += [a + j for j in opens]
        assert _state(got) == _state(want)
    assert got_out == want_out and got_opens == want_opens
    assert got.flush() == want.flush() and _state(got) == _state(want)


def test_segment_peak_and_close_rules():
    """The peak is the first sample with the largest key, a NaN key never
    wins but holds the peak when it opens the event, and the span peak
    takes the closing sample; a violation after a gap in k of T1 or more
    extends the event. Without span the non-violations' keys are NaN."""
    def run(ks, flags, keys, span=False, t1=3):
        seg = EventSegmenter(t1, 100)
        n = len(ks)
        keys = np.array(keys, dtype=float)
        if not span:
            keys = np.where(flags, keys, math.nan)
        out = seg.run(np.array(ks), np.flatnonzero(flags), keys, np.arange(n) + 0.5)
        return [(j, s.start_k, s.end_k, s.peak) for j, s in out] + [
            (None, s.start_k, s.end_k, s.peak) for s in seg.flush()]

    nan = math.nan
    assert run([0, 1, 2, 9], [1, 1, 1, 0], [1.0, 2.0, 2.0, 0.0]) == [(3, 0, 2, 1.5)]
    assert run([0, 1, 2, 9], [1, 1, 1, 0], [2.0, 2.0, 1.0, 0.0]) == [(3, 0, 2, 0.5)]
    assert run([0, 1, 2, 9], [1, 1, 1, 0], [1.0, nan, 0.5, 0.0]) == [(3, 0, 2, 0.5)]
    assert run([0, 1, 2, 9], [1, 1, 1, 0], [nan, 5.0, 9.0, 0.0]) == [(3, 0, 2, 0.5)]
    assert run([0, 10, 11], [1, 1, 0], [1.0, 0.0, 0.0]) == [(None, 0, 10, 0.5)]
    assert run([0, 1, 5, 6], [1, 0, 0, 1], [1.0, 0.0, 0.0, 0.0]) == [
        (2, 0, 0, 0.5), (None, 6, 6, 3.5)]
    assert run([0, 1, 5], [1, 0, 0], [1.0, 2.0, 3.0], span=True) == [(2, 0, 0, 2.5)]


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


def test_voltage_peak_skips_in_band_samples_under_an_asymmetric_band():
    # 1.15 is inside (0.95, 1.2) but further from 1 than the violating
    # 0.94s; it must not become the peak, streamed or in one block
    cfg = Config(v_normal_low=0.95, v_normal_high=1.2)
    mags = [1.0] * 50 + [0.94, 1.15, 0.94] + [1.0] * 200
    frames = [PhasorFrame(k=k, bus=3, v=balanced(m), i_lines={}) for k, m in enumerate(mags)]
    want = [("sag", 50, 52, float(m)) for m in np.abs(balanced(0.94))]
    reps = _engine_reports(LocalEngine(3, {}, cfg), frames, VOLTAGE_MAG)
    assert [(r.label, r.start_k, r.end_k, r.severity) for r in reps] == want
    eng = LocalEngine(3, {}, cfg)
    reps = eng.run(StreamColumns.from_frames(frames)) + eng.finish()
    assert [(r.label, r.start_k, r.end_k, r.severity) for r in reps] == want


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
    ks, _ = cusum_run(DetectorState(cfg), xs.tolist())   # k is the position
    # two clusters: a persistent one from the square wave, then a short one
    first, second = [k for k in ks if k < 250], [k for k in ks if k >= 250]
    assert len(first) > cfg.t2 + 1 and 0 < len(second) <= cfg.t2
    assert second[0] - first[-1] > cfg.t1

    tracker = central.CentralChangeTracker(None, cfg)
    recs = []
    for k, x in enumerate(xs):
        recs += tracker.step(central.FusedBlock(ks=np.array([k], dtype=np.uint64),
                                                D=np.array([[x + 0j]]),
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
    seg.run(np.arange(n), np.arange(n), np.zeros(n))
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
