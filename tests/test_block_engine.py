"""The local engine gives the same results whatever blocks its stream comes in.

`LocalEngine.run` over blocks and `LocalEngine.step` one frame at a time
must agree exactly: reports compared with ==, severities included, and the
derived columns bit for bit.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.analytics import (LocalEngine, PhasorFrame, StreamColumns, complex_power,
                                 positive_sequence)
from gridwatch.config import Config

RATINGS = {"1-2": np.array([1.0, 1.0, 0.0]), "2-3": np.array([0.5, 0.5, 0.5])}
LINES = ("1-2", "2-3", "9-9")   # "9-9" is carried by some frames but has no rating


def make_stream(rng, n, gaps=False, p_missing=0.0, p_zero=0.0, step_at=None):
    """n frames whose phase-a voltage halves at `step_at` while the line
    currents on it double past their ratings, with optional gaps in k,
    frames missing a line and zero-voltage frames."""
    step_at = n // 2 if step_at is None else step_at
    balanced = np.exp(1j * np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3]))
    frames, k = [], 0
    for j in range(n):
        k += int(rng.integers(1, 4)) if gaps else 1
        level = 0.5 if j >= step_at else 1.0
        noise = 1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        v = balanced * np.array([level, 1.0, 1.0]) * np.exp(0.01j * j) + noise
        if rng.random() < p_zero:
            v = np.zeros(3, dtype=complex)
        i_lines = {}
        for lid, scale in zip(LINES, (0.8, 0.4, 0.2)):
            if rng.random() >= p_missing:
                i_lines[lid] = scale / level ** 2 * v + 1e-3 * rng.normal(size=3)
        frames.append(PhasorFrame(k=k, bus=2, v=v, i_lines=i_lines))
    return frames


@st.composite
def streams(draw):
    """A short stream, the window length M and the block sizes to cut it in."""
    n = draw(st.integers(0, 90))
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = make_stream(rng, n, gaps=draw(st.booleans()),
                         p_missing=draw(st.sampled_from([0.0, 0.1, 0.5])),
                         p_zero=draw(st.sampled_from([0.0, 0.05, 0.3])),
                         step_at=draw(st.integers(0, max(n - 1, 0))))
    sizes = draw(st.lists(st.sampled_from([1, 7, m, max(n, 1)]), min_size=1, max_size=6))
    return frames, m, sizes


def cut(frames, sizes):
    """Consecutive blocks of the stream's columns, with sizes cycling
    through `sizes`."""
    cols = StreamColumns.from_frames(frames)
    out, s, n = [], 0, 0
    while s < len(frames):
        size = sizes[n % len(sizes)]
        out.append(cols[s:s + size])
        s += size
        n += 1
    return out


def config(m):
    return Config(warmup=5, t1=6, t2=6, m=m, trend_window=4)


def by_steps(eng, frames):
    reports = []
    for f in frames:
        reports += eng.step(f)
    return reports + eng.finish()


def by_blocks(eng, blocks):
    reports = []
    for b in blocks:
        reports += eng.run(b)
    return reports + eng.finish()


@given(streams())
@settings(max_examples=60, deadline=None)
def test_blocks_and_steps_give_equal_reports(case):
    frames, m, sizes = case
    stepped = LocalEngine(2, RATINGS, config(m))
    blocked = LocalEngine(2, RATINGS, config(m))
    assert by_blocks(blocked, cut(frames, sizes)) == by_steps(stepped, frames)
    assert blocked.freq.quality_drops == stepped.freq.quality_drops


def _bits(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


def _columns(derived):
    """Every derived column of a list of blocks, flattened to bytes and lists."""
    out = {"ks": [k for d in derived for k in d.ks],
           "vmag": _bits(d.vmag for d in derived),
           "beta_hat": _bits(d.beta_hat for d in derived)}
    for lid in sorted({lid for d in derived for lid in d.lines}):
        parts = [d.lines[lid] for d in derived if lid in d.lines]
        out[lid] = ([k for c in parts for k in c.ks], [k for c in parts for k in c.qss_ks],
                    *(_bits(getattr(c, name) for c in parts)
                      for name in ("imag", "p", "q", "qss_residual")))
    return out


@given(streams())
@settings(max_examples=60, deadline=None)
def test_blocks_and_steps_derive_equal_columns(case):
    frames, m, sizes = case
    stepped = LocalEngine(2, RATINGS, config(m))
    blocked = LocalEngine(2, RATINGS, config(m))
    per_frame = [stepped.derive(StreamColumns.from_frames([f])) for f in frames]
    per_block = [blocked.derive(b) for b in cut(frames, sizes)]
    assert _columns(per_block) == _columns(per_frame)


def test_streams_exercise_events():
    """The generated streams are not all quiet: one yields reports of several
    rules, and residuals once the window fills."""
    frames = make_stream(np.random.default_rng(0), 80, gaps=True, p_missing=0.1)
    eng = LocalEngine(2, RATINGS, config(4))
    rules = {r.rule for r in by_blocks(eng, cut(frames, [7]))}
    assert {"voltage_mag", "overcurrent", "current_mag", "qss_validity"} <= rules, rules
    whole = StreamColumns.from_frames(frames)
    assert len(LocalEngine(2, RATINGS, config(4)).derive(whole).lines["1-2"].qss_residual) > 60


def test_kernels_do_not_depend_on_array_length():
    """numpy's complex multiply rounds a long array differently from a short
    one (here from about 12k rows on); the derive's elementwise kernels give
    each row the same bits at any length."""
    rng = np.random.default_rng(1)
    V = rng.normal(size=(12000, 3)) + 1j * rng.normal(size=(12000, 3))
    I = rng.normal(size=(12000, 3)) + 1j * rng.normal(size=(12000, 3))
    rows = [(*complex_power(V[j], I[j]), np.abs(V[j]), positive_sequence(V[j]))
            for j in range(len(V))]
    whole = (*complex_power(V, I), np.abs(V), positive_sequence(V))
    for n, col in enumerate(whole):
        assert col.tobytes() == np.concatenate([r[n] for r in rows]).tobytes(), n
