"""Local engine: per-sensor stream analytics and the six local rules.

A local engine sees one sensor's phasor stream and nothing else -- no
admittances, no siting information. It works on blocks of frames, each a
row range of the stream's columns (`StreamColumns`). One vectorised derive
turns a block into derived columns: magnitudes, per-phase powers,
a frequency-drift estimate and a quasi-steady-state subspace residual per
incident line. Then each rule runs over the columns of one derived
quantity: a threshold rule flags a whole block with numpy comparisons, and
a change rule runs the CUSUM recursion over each column, the one loop per
sample besides the frequency tracker's smoothing. A segmenter per column
groups the violations into events from their positions, and each event
becomes a labeled anomaly report whose severity is its peak: the value at
the first largest key among the event's samples, where a threshold rule
keys its non-violating samples NaN so that only violations count. A
column with no violation and no open event costs its segmenter nothing.
Every rule constant (bands, CUSUM parameters, T1 and T2, the trend fit's
window and bounds) is read from the engine's `Config`; no helper restates
a default.

Between blocks the engine carries a small, fixed state: the last M rows of
each line's window, the previous positive-sequence value, each channel's
detector and segmenter, and its recent samples for trend labeling. A stream
fed one frame at a time (`LocalEngine.step`, which wraps the frame as a
block of one) and the same stream fed in blocks of any length
(`LocalEngine.run`) go through the same kernels and give the same
reports, bit for bit. That is also why powers, the positive
sequence and the window correlations are computed in separately rounded
real arithmetic: numpy's complex multiply rounds differently depending on
the length of the array.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import Config

# rule identifiers
VOLTAGE_MAG = "voltage_mag"
OVERCURRENT = "overcurrent"
ACTIVE_POWER = "active_power"
REACTIVE_POWER = "reactive_power"
CURRENT_MAG = "current_mag"
FREQUENCY = "frequency"
QSS_VALIDITY = "qss_validity"

TREND_LABELS = ("surge", "drop", "oscillation")
RULE_LABELS = {
    VOLTAGE_MAG: ("sag", "swell", "interruption", "sustained_interruption",
                  "undervoltage", "overvoltage", "transient"),
    OVERCURRENT: ("overcurrent",),
    ACTIVE_POWER: TREND_LABELS,
    REACTIVE_POWER: TREND_LABELS,
    CURRENT_MAG: TREND_LABELS,
    FREQUENCY: TREND_LABELS,
    QSS_VALIDITY: ("transient",),
}

DerivedSink = Callable[[int, "DerivedBlock"], None]  # LocalEngine's sink(bus, block)


@dataclass(frozen=True)
class PhasorFrame:
    """One timestamp of a sensor: bus voltage and per-incident-line currents."""
    k: int
    bus: int
    v: np.ndarray                    # complex (3,), p.u.
    i_lines: dict[str, np.ndarray]   # line id -> complex (3,), p.u.


@dataclass(frozen=True)
class StreamColumns:
    """One sensor's stream as columns, one row per frame.

    `ks` (uint64) rises strictly. `vi[j]` holds frame j's voltage and then
    its line currents summed onto +0 in line-id order, as the central node
    sums a frame off the wire. Each incident line has the rows of the
    frames that carry it, ascending, and its currents at those rows.
    """
    bus: int
    ks: np.ndarray                                   # uint64 (n,)
    vi: np.ndarray                                   # complex (n, 2, 3)
    lines: dict[str, tuple[np.ndarray, np.ndarray]]  # line id -> (rows (m,), complex (m, 3))

    @property
    def v(self) -> np.ndarray:
        return self.vi[:, 0]

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, rows: slice) -> "StreamColumns":
        """The frames of a row range."""
        start, stop, step = rows.indices(len(self.ks))
        if step != 1:
            raise ValueError("a row range has step 1")
        lines = {}
        for lid, (at, cur) in self.lines.items():
            a, b = at.searchsorted((start, stop)).tolist()
            if b > a:
                lines[lid] = (at[a:b] - start, cur[a:b])
        return StreamColumns(self.bus, self.ks[start:stop], self.vi[start:stop], lines)

    def __iter__(self):
        """The frames, built one at a time; each lists its lines by id."""
        taken = dict.fromkeys(self.lines, 0)   # per line, its rows passed
        for j in range(len(self.ks)):
            i_lines = {}
            for lid, (at, cur) in self.lines.items():
                n = taken[lid]
                if n < len(at) and at[n] == j:
                    i_lines[lid] = cur[n]
                    taken[lid] = n + 1
            yield PhasorFrame(k=int(self.ks[j]), bus=self.bus, v=self.vi[j, 0], i_lines=i_lines)

    @classmethod
    def from_frames(cls, frames: list[PhasorFrame]) -> "StreamColumns":
        """Frames taken in k order; of two frames with one k the later wins."""
        bus = frames[0].bus if frames else -1
        ks = np.fromiter((f.k for f in frames), np.uint64, len(frames))
        order = np.argsort(ks, kind="stable")
        last = np.ones(len(order), dtype=bool)   # the last frame of its k
        last[:-1] = ks[order][1:] != ks[order][:-1]
        keep = order[last].tolist()
        lines: dict[str, tuple[list, list]] = {}
        for j, i in enumerate(keep):
            for lid, c in frames[i].i_lines.items():
                rows, cur = lines.setdefault(lid, ([], []))
                rows.append(j)
                cur.append(c)
        v = np.array([frames[i].v for i in keep], dtype=complex).reshape(len(keep), 3)
        return cls.assemble(bus, ks[keep], v, {
            lid: (np.array(rows, dtype=np.intp), np.array(cur, dtype=complex))
            for lid, (rows, cur) in lines.items()})

    @classmethod
    def assemble(cls, bus: int, ks: np.ndarray, v: np.ndarray,
                 lines: dict[str, tuple[np.ndarray, np.ndarray]]) -> "StreamColumns":
        """Columns from the frames' voltages and each line's rows and currents."""
        vi = np.zeros((len(ks), 2, 3), dtype=complex)
        vi[:, 0] = v
        # a non-finite sum makes the sample non-finite, and the central
        # engine skips and counts it
        by_id = {}
        with np.errstate(invalid="ignore", over="ignore"):
            for lid in sorted(lines):
                r, c = by_id[lid] = lines[lid]
                vi[r, 1] += c
        return cls(bus, ks, vi, by_id)


@dataclass(frozen=True)
class AnomalyReport:
    rule: str
    label: str
    bus: int
    line: str | None
    start_k: int
    end_k: int | None   # None marks a persistent (still-open) report
    severity: float

    def __post_init__(self):
        if self.label not in RULE_LABELS[self.rule]:
            raise ValueError(f"label {self.label!r} not in {self.rule} alphabet")
        if self.end_k is not None and self.start_k > self.end_k:
            raise ValueError("start_k > end_k")

    def to_dict(self) -> dict:
        return {"rule": self.rule, "label": self.label, "bus": self.bus,
                "line": self.line, "start_k": self.start_k, "end_k": self.end_k,
                "persistent": self.end_k is None, "severity": self.severity}

    @classmethod
    def from_dict(cls, d: dict) -> "AnomalyReport":
        return cls(rule=d["rule"], label=d["label"], bus=int(d["bus"]),
                   line=d["line"], start_k=int(d["start_k"]),
                   end_k=None if d["end_k"] is None else int(d["end_k"]),
                   severity=float(d["severity"]))


@dataclass
class LineColumns:
    """One incident line's derived columns, over the block frames that carry it."""
    rows: np.ndarray           # (n,) block positions of those frames
    ks: np.ndarray             # (n,) their sample indices, as the stream's ks
    imag: np.ndarray           # (n, 3)
    p: np.ndarray              # (n, 3)
    q: np.ndarray              # (n, 3)
    qss_rows: np.ndarray       # the positions whose QSS window is full: a tail of rows
    qss_ks: np.ndarray
    qss_residual: np.ndarray   # (len(qss_rows),)


_NO_ROWS = np.empty(0, dtype=np.intp)


@dataclass
class DerivedBlock:
    """Derived columns of a block of frames, one row per frame."""
    ks: np.ndarray                    # (T,) the stream's ks (uint64)
    vmag: np.ndarray                  # (T, 3)
    beta_hat: np.ndarray              # (T,), rad/sample
    lines: dict[str, LineColumns]

    def column(self, line: str | None, name: str):
        """(block positions, sample indices, values) of one derived quantity,
        as arrays: (n,) and (n,), then (n, 3) per phase or (n,).

        A line has no value at frames without it, nor its QSS residual at
        frames before its window fills.
        """
        if line is None:
            src, rows, ks = self, np.arange(len(self.ks)), self.ks
        else:
            src = self.lines.get(line)
            if src is None:
                return _NO_ROWS, self.ks[:0], np.empty(0)
            if name == "qss_residual":
                rows, ks = src.qss_rows, src.qss_ks
            else:
                rows, ks = src.rows, src.ks
        return rows, ks, getattr(src, name)


def complex_power(v, i) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase active/reactive power: S_p = v_p * conj(i_p).

    Separately rounded real arithmetic, so that each element is the same
    whatever the shape of the arrays.
    """
    v = np.asarray(v, dtype=complex)
    i = np.asarray(i, dtype=complex)
    return v.real * i.real + v.imag * i.imag, v.imag * i.real - v.real * i.imag


def check_overcurrent(imag, rating):
    """Per-phase overcurrent flags, of arrays or of one value; the rated
    value itself is allowed.

    Absent phases (no rating) never flag.
    """
    return (rating > 0) & (imag > rating)


def classify_voltage(vext: float, tau: int, cfg: Config) -> str | None:
    """Label a voltage-magnitude excursion from its extremal magnitude and
    its duration in samples; None when the magnitude is inside the normal
    band. Sub-cycle excursions are labeled "transient" (they belong to the
    steady-state-validity rule).
    """
    if cfg.v_normal_low < vext < cfg.v_normal_high:
        return None
    tau_s = tau * cfg.ts_s
    if tau_s < cfg.t0_s / 2.0:
        return "transient"
    long = tau_s > cfg.v_sustained_s
    if vext < cfg.v_interruption:
        return "sustained_interruption" if long else "interruption"
    if vext <= cfg.v_normal_low:
        return "undervoltage" if long else "sag"
    return "overvoltage" if long else "swell"


_ALPHA = np.exp(2j * np.pi / 3.0)
_POS_SEQ = np.array([1.0, _ALPHA, _ALPHA ** 2]) / 3.0
_SEQ_EPS = 1e-12


def positive_sequence(V) -> np.ndarray:
    """Positive-sequence component of each row of V (T, 3).

    Separately rounded real arithmetic, like `complex_power`.
    """
    V = np.asarray(V, dtype=complex).reshape(-1, 3)
    re = V.real * _POS_SEQ.real - V.imag * _POS_SEQ.imag
    im = V.imag * _POS_SEQ.real + V.real * _POS_SEQ.imag
    out = np.empty(len(V), dtype=complex)
    out.real = re[:, 0] + re[:, 1] + re[:, 2]
    out.imag = im[:, 0] + im[:, 1] + im[:, 2]
    return out


class FrequencyTracker:
    """Positive-sequence phase-increment frequency-drift estimator.

    beta_hat is the exponentially smoothed per-sample phase advance of the
    positive-sequence voltage, in rad/sample; the implied drift is
    beta_hat / (2 pi Ts) Hz. A sample whose positive sequence (or its
    predecessor's) is below 1e-12 counts as a quality drop and leaves the
    estimate as it is.
    """

    def __init__(self, lambda_forget: float):
        self.lam = lambda_forget
        self.beta_hat = 0.0
        self.quality_drops = 0
        self._prev: complex | None = None
        self._seeded = False

    def track(self, vps) -> list[float]:
        """Advance over a positive-sequence series; beta_hat after each sample."""
        lam = self.lam
        beta, prev, seeded, drops = self.beta_hat, self._prev, self._seeded, self.quality_drops
        out = []
        for vp in vps:
            if prev is None:
                prev = vp
            elif abs(vp) < _SEQ_EPS or abs(prev) < _SEQ_EPS:
                drops += 1
                if abs(vp) >= _SEQ_EPS:
                    prev = vp
            else:
                inc = cmath.phase(vp * prev.conjugate())
                prev = vp
                if seeded:
                    beta = lam * beta + (1.0 - lam) * inc
                else:
                    beta = inc
                    seeded = True
            out.append(beta)
        self.beta_hat, self._prev, self._seeded, self.quality_drops = beta, prev, seeded, drops
        return out


class WindowBuffer:
    """The last M (v, i) rows of one line, carried from block to block."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("window needs M >= 2")
        self.capacity = capacity
        self._v = np.empty((0, 3), dtype=complex)
        self._i = np.empty((0, 3), dtype=complex)

    def __len__(self) -> int:
        return len(self._v)

    def extend(self, V: np.ndarray, I: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append rows (n, 3); returns the rows held before followed by the new ones."""
        V = np.concatenate([self._v, V])
        I = np.concatenate([self._i, I])
        self._v, self._i = V[-self.capacity:].copy(), I[-self.capacity:].copy()
        return V, I


def _windows(a: np.ndarray, m: int) -> np.ndarray:
    """View (n - m + 1, c, m) of an (n, c) array: window w is a[w:w+m].T."""
    a = np.ascontiguousarray(a)
    s0, s1 = a.strides
    return np.ndarray((len(a) - m + 1, a.shape[1], m), a.dtype, buffer=a, strides=(s0, s1, s0))


def window_correlations(V: np.ndarray, I: np.ndarray, m: int) -> np.ndarray:
    """Stacked correlations [R_iv; R_vv] (n - m + 1, 6, 3) of every m-row window.

    Window w covers rows w .. w+m-1 of V and I (n, 3). R_iv = sum_r i[r]
    v[r]^H, R_vv likewise with the bus voltage, both scaled by 1/(m-1).
    One stacked matmul makes the same BLAS call for every window, so a
    window's bits do not depend on how many are stacked.
    """
    if len(V) < m:
        return np.empty((0, 6, 3), dtype=complex)
    X = np.concatenate([I, V], axis=1)   # row r: i[r] then v[r]
    R = _windows(X, m) @ _windows(np.conj(V), m).transpose(0, 2, 1)
    R.view(float)[...] *= 1.0 / (m - 1)   # real and imaginary parts, each rounded once
    return R


def qss_residuals(R: np.ndarray) -> np.ndarray:
    """Frobenius residual of R R^H outside its best rank-1 approximation,
    for each matrix R in a stack (n, p, q), from one batched SVD.

    Equals sqrt(sum_{i>=2} sigma_i^4(R)); zero exactly when R is rank one.
    """
    if len(R) == 0:
        return np.empty(0)
    s = np.linalg.svd(R, compute_uv=False)
    out = np.zeros(len(R))
    for c in range(1, s.shape[1]):
        sq = s[:, c] * s[:, c]
        out += sq * sq
    return np.sqrt(out)


@dataclass
class DetectorState:
    """Two-sided CUSUM over standardized innovations with adaptive baseline:
    the recursion's state, and the `Config` whose nu, h, lambda_forget,
    warmup and var_floor it runs with.

    The mean/variance baseline is a Welford estimate over the warmup window,
    then an exponential window with factor lambda_forget. A declared change
    resets both accumulators, re-seeds the mean at the declaring sample and
    re-enters warmup before re-arming (multiple change points).
    """
    cfg: Config = field(default_factory=Config)
    mean_hat: float = 0.0
    var_hat: float = 0.0
    g_plus: float = 0.0
    g_minus: float = 0.0
    armed: bool = False
    _n: int = field(default=0, repr=False)
    _w_mean: float = field(default=0.0, repr=False)
    _w_m2: float = field(default=0.0, repr=False)


def cusum_run(state: DetectorState, xs) -> tuple[list[int], list[float]]:
    """Advance the detector over a series of floats (a list iterates fastest).

    Returns the positions where a change was declared, ascending, and the
    column of standardized innovations z (0 during warmup). Each step is
    the scalar recursion of the detector, rounded as written: `d ** 2`
    squares with the C library's `pow`, which can differ from `d * d` in
    the last bit.
    """
    cfg = state.cfg
    nu, h, lam, warmup, floor = cfg.nu, cfg.h, cfg.lambda_forget, cfg.warmup, cfg.var_floor
    mean, var, gp, gm, armed = state.mean_hat, state.var_hat, state.g_plus, state.g_minus, state.armed
    n, w_mean, w_m2 = state._n, state._w_mean, state._w_m2
    rest = 1.0 - lam
    sqrt = math.sqrt
    alarms: list[int] = []
    zs: list[float] = []
    for x in xs:
        if not armed:
            n += 1
            d = x - w_mean
            w_mean += d / n
            w_m2 += d * (x - w_mean)
            if n >= warmup:
                mean = w_mean
                var = w_m2 / max(n - 1, 1)
                armed = True
            zs.append(0.0)
            continue
        d = x - mean
        z = d / sqrt(floor if floor > var else var)
        g = gp + z - nu
        gp = g if g > 0.0 else 0.0
        g = gm - z - nu
        gm = g if g > 0.0 else 0.0
        var = lam * var + rest * d ** 2
        mean = lam * mean + rest * x
        if gp > h or gm > h:
            gp = gm = 0.0
            mean = x
            armed = False
            n, w_mean, w_m2 = 1, x, 0.0
            alarms.append(len(zs))
        zs.append(z)
    state.mean_hat, state.var_hat, state.g_plus, state.g_minus, state.armed = mean, var, gp, gm, armed
    state._n, state._w_mean, state._w_m2 = n, w_mean, w_m2
    return alarms, zs


_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=64)
def _line_design(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.polyfit's scaled design for a line through x = 0 .. n-1: the
    Vandermonde matrix with its columns divided by their norms, and the norms."""
    lhs = np.vander(np.arange(n) + 0.0, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    return lhs, scale


def _slope(y: np.ndarray) -> float:
    """np.polyfit(np.arange(len(y)), y, 1)[0], bit for bit: the same
    least-squares solve on a design cached per length."""
    lhs, scale = _line_design(len(y))
    return float(np.linalg.lstsq(lhs, y + 0.0, len(y) * _EPS)[0][0] / scale[0])


def _variance(a: np.ndarray) -> float:
    """np.var of a 1-D array, bit for bit: the same reductions."""
    d = a - np.add.reduce(a) / len(a)
    return float(np.add.reduce(d * d) / len(a))


def classify_trend(signal, change_index: int, cfg: Config) -> str:
    """Label the excursion around a change as surge, drop or oscillation.

    Least-squares slope over the trend_window samples from the change
    decides the direction; a flat slope with a post/pre variance blow-up
    (pre: the trend_window samples before the change) is an oscillation.
    """
    window, slope_min = cfg.trend_window, cfg.slope_min
    sig = np.asarray(signal, dtype=float)
    post = sig[change_index:change_index + window]
    if len(post) < 3:
        raise ValueError("need >= 3 samples after the change")
    slope = _slope(post)
    if slope > slope_min:
        return "surge"
    if slope < -slope_min:
        return "drop"
    pre = sig[max(0, change_index - window):change_index]
    pre_var = _variance(pre) if len(pre) >= 2 else 0.0
    post_var = _variance(post)
    if post_var > cfg.variance_ratio * max(pre_var, 1e-300):
        return "oscillation"
    return "surge" if slope >= 0 else "drop"


@dataclass
class Segment:
    """One emission from the segmentation state machine."""
    start_k: int
    end_k: int | None          # None for the mid-event persistent emission
    last_k: int                # latest violation so far; equals end_k once closed
    peak: float = 0.0          # the event's running peak value at the emission


def _running_peak(best: float, peak: float, keys: np.ndarray, values: np.ndarray,
                  start: int, stop: int) -> tuple[float, float]:
    """The running (key, value) peak after the samples start .. stop - 1,
    taken in order: only a larger key replaces it, so the first of equal
    keys stays, and a NaN key never wins."""
    if stop - start == 1:
        key = float(keys[start])
        return (key, float(values[start])) if key > best else (best, peak)
    cand = keys[start:stop]
    if not len(cand):
        return best, peak
    top = np.fmax.reduce(cand)   # NaN only when every key is
    if top > best:
        i = int(np.argmax(cand == top))
        return float(cand[i]), float(values[start + i])
    return best, peak


def _first_reaching(ks: np.ndarray, k: int, start: int) -> int:
    """The first position from `start` on whose sample index is at least k,
    or len(ks)."""
    if k > int(ks[-1]):
        return len(ks)
    return max(int(ks.searchsorted(ks.dtype.type(k))), start)


class EventSegmenter:
    """Groups a column's violations into events (local-engine flowchart).

    An event opens at a violation. It closes at the first non-violating
    sample whose k is at least last + T1, where last is the k of its latest
    violation (end = last). A violation before that sample extends the
    event, even one that follows a gap in k of T1 or more. When the
    violation count inside one open event reaches T2 + 1, a persistent
    emission is produced at that violation and the event stays open.

    Each sample carries a key and a value. The event's peak is the value
    of the first sample with the largest key among all its samples, from
    the one that opens it up to and including the one that closes it. A
    NaN key never wins, so a caller whose peak must come from the
    violations alone passes NaN keys at the other samples; a NaN key on
    the opening sample keeps the peak there. The state is an open flag,
    three integers, the peak and its key, whatever the event's length.
    """

    def __init__(self, t1: int, t2: int):
        self.t1 = t1
        self.t2 = t2
        self._open = False
        self._start = 0
        self._last = 0
        self._count = 0
        self._key = 0.0
        self._peak = 0.0

    @property
    def is_open(self) -> bool:
        return self._open

    def run(self, ks: np.ndarray, viol, keys, values=None,
            opens: list[int] | None = None) -> list[tuple[int, Segment]]:
        """Advance over a column; (position, emission) pairs in order.

        `ks` is the column's integer sample indices, rising; `viol` the
        positions of its violating samples, ascending (a list or an array).
        `keys` and `values` (default: the keys) are its float arrays. When
        `opens` is given, the position of every sample that opens an event
        is appended to it. Without violations or an open event, nothing is
        looked at.

        The work is per event: events split where a non-violating sample
        between two violations lies T1 or more after the first, and each
        event's peak comes from one reduction over its samples.
        """
        if not (len(viol) or self._open and len(ks)):
            return []
        values = keys if values is None else values
        t1, persist = self.t1, self.t2 + 1
        is_open, start, last, count = self._open, self._start, self._last, self._count
        best, peak = self._key, self._peak
        at = np.asarray(viol)
        pos = at.tolist()
        # violation indices where an event opens or may open, then len(viol):
        # the first, and each one after a gap that holds a closing sample
        bounds = [0, len(pos)] if pos else []
        if len(pos) > 1:
            ends = (at[1:] - at[:-1] > 1) & (ks[at[1:] - 1] - ks[at[:-1]] >= t1)
            bounds[1:1] = (np.flatnonzero(ends) + 1).tolist()
        first = 0   # the first sample not yet taken
        out = []
        for a, b in zip(bounds, bounds[1:]):
            p = pos[a]
            if is_open and (a or (p > first and int(ks[p - 1]) - last >= t1)):
                c = _first_reaching(ks, last + t1, first)
                best, peak = _running_peak(best, peak, keys, values, first, c + 1)
                out.append((c, Segment(start, last, last, peak)))
                is_open = False
            if not is_open:
                is_open, start, count = True, int(ks[p]), 0
                best, peak = float(keys[p]), float(values[p])
                if opens is not None:
                    opens.append(p)
                first = p + 1
            # the peak up to the persistent emission at violation q, if it
            # falls in this run, then up to the run's last violation
            q = a + persist - count - 1
            for hi in ([q + 1, b] if a <= q < b - 1 else [b]):
                stop = pos[hi - 1] + 1
                best, peak = _running_peak(best, peak, keys, values, first, stop)
                first = stop
                if hi == q + 1:
                    out.append((pos[q], Segment(start, None, int(ks[pos[q]]), peak)))
            count += b - a
            last = int(ks[pos[b - 1]])
        n = len(ks)
        if is_open and first < n:   # samples after the last violation
            c = _first_reaching(ks, last + t1, first)
            best, peak = _running_peak(best, peak, keys, values, first, min(c + 1, n))
            if c < n:
                out.append((c, Segment(start, last, last, peak)))
                is_open = False
        self._open, self._start, self._last, self._count = is_open, start, last, count
        self._key, self._peak = best, peak
        return out

    def flush(self) -> list[Segment]:
        if not self._open:
            return []
        self._open = False
        return [Segment(self._start, self._last, self._last, self._peak)]


def _trend_label(pre: list[float], post: list[float], cfg: Config) -> str:
    try:
        return classify_trend(np.array(pre + post, dtype=float), len(pre), cfg)
    except ValueError:
        return "surge" if (post and post[-1] >= (pre or [0])[-1]) else "drop"


class _TrendLabels:
    """Trend labels of one change channel's events.

    An event's label comes from the trend_window samples before its
    first change point and up to trend_window samples from it; a record
    emitted before that window fills is labeled from the samples so far,
    and that label stays. Samples are numbered from the channel's first.
    """

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self._hist: list[float] = []   # the latest samples, at least trend_window
        self._base = 0                 # number of the sample _hist[0]
        self._pending: tuple[list[float], int] | None = None  # (pre samples, onset number)
        self._label: str | None = None

    def advance(self, xs: list[float], opens: list[int], emits: list[int]) -> list[str]:
        """Take a column; the label of each emission, at positions `emits`.

        `opens` are the positions where events opened.
        """
        w = self.cfg.trend_window
        n0 = self._base + len(self._hist)
        self._hist += xs
        labels = []
        if opens or emits or self._pending is not None:
            for j, emit in sorted([(j, False) for j in opens] + [(j, True) for j in emits]):
                a = n0 + j
                self._finish_filled(a)
                if emit:
                    labels.append(self.current(a))
                else:
                    pre = self._hist[max(a - w, self._base) - self._base:a - self._base]
                    self._pending, self._label = (pre, a), None
            self._finish_filled(self._base + len(self._hist))
        drop = len(self._hist) - w
        if drop > 0:
            del self._hist[:drop]
            self._base += drop
        return labels

    def current(self, upto: int | None = None) -> str:
        """The latest event's label, finished on the samples up to number `upto`
        (default: every sample so far) if its window has not filled."""
        if self._pending is not None:
            self._finish(self._base + len(self._hist) - 1 if upto is None else upto)
        return self._label

    def _finish_filled(self, before: int) -> None:
        """Finish the pending label if its window filled before sample `before`."""
        if self._pending is not None:
            last = self._pending[1] + self.cfg.trend_window - 1
            if last < before:
                self._finish(last)

    def _finish(self, upto: int) -> None:
        pre, a = self._pending
        post = self._hist[a - self._base:upto + 1 - self._base]
        self._label = _trend_label(pre, post, self.cfg)
        self._pending = None


class _Rule:
    """One local rule over the columns of one derived quantity: a
    segmenter per column, and the column's reports.

    `scan` runs the rule over a block's values, an (n, width) array, or
    (n,) when the width is one. It returns (position, column, report)
    triples.
    """

    def __init__(self, rule: str, bus: int, line: str | None, cfg: Config, width: int):
        self.rule = rule
        self.bus = bus
        self.line = line
        self.cfg = cfg
        self.width = width
        self.segs = [EventSegmenter(cfg.t1, cfg.t2) for _ in range(width)]

    def flush(self) -> list[AnomalyReport]:
        return [self._report(c, s) for c, seg in enumerate(self.segs) for s in seg.flush()]


class _Threshold(_Rule):
    """A threshold rule on each phase. A subclass says which samples
    violate it, by which key the event's severity tracks the values, and
    builds the report. The other samples get NaN keys, so an event's peak
    is the first largest key among its violations."""

    def scan(self, ks: np.ndarray, X: np.ndarray) -> list[tuple[int, int, AnomalyReport]]:
        flags = self._flags(X)
        hit = flags.any(axis=0).tolist()
        keys = None
        out = []
        for c, seg in enumerate(self.segs):
            if hit[c] or seg.is_open:
                if keys is None:
                    keys = np.where(flags, self._keys(X), np.nan)
                viol = flags[:, c].nonzero()[0] if hit[c] else ()
                out += [(j, c, self._report(c, s))
                        for j, s in seg.run(ks, viol, keys[:, c], X[:, c])]
        return out


class _Voltage(_Threshold):
    """Magnitude band rule on each phase; severity is the event's first
    magnitude with the largest |v - 1|."""

    def __init__(self, bus: int, cfg: Config):
        super().__init__(VOLTAGE_MAG, bus, None, cfg, 3)

    def _flags(self, X):
        return ~((self.cfg.v_normal_low < X) & (X < self.cfg.v_normal_high))

    def _keys(self, X):
        return np.abs(X - 1.0)

    def _report(self, c: int, s: Segment) -> AnomalyReport:
        label = classify_voltage(s.peak, s.last_k - s.start_k + 1, self.cfg)
        return AnomalyReport(rule=VOLTAGE_MAG, label=label, bus=self.bus, line=None,
                             start_k=s.start_k, end_k=s.end_k, severity=s.peak)


class _Overcurrent(_Threshold):
    """Rating rule on each phase of a line; severity is peak current / rating."""

    def __init__(self, bus: int, line: str, rating, cfg: Config):
        super().__init__(OVERCURRENT, bus, line, cfg, 3)
        self.rating = np.asarray(rating, dtype=float)

    def _flags(self, X):
        return check_overcurrent(X, self.rating)

    def _keys(self, X):
        return X

    def _report(self, c: int, s: Segment) -> AnomalyReport:
        return AnomalyReport(rule=OVERCURRENT, label="overcurrent", bus=self.bus,
                             line=self.line, start_k=s.start_k, end_k=s.end_k,
                             severity=s.peak / float(self.rating[c]))


class _Change(_Rule):
    """CUSUM rule on each column; severity is the event's peak |z|.

    With `trend`, events are labeled surge, drop or oscillation from the
    signal around their first change point; without, "transient", as the
    steady-state-validity rule wants.
    """

    def __init__(self, rule: str, bus: int, line: str | None, cfg: Config, width: int,
                 trend: bool):
        super().__init__(rule, bus, line, cfg, width)
        self.dets = [DetectorState(cfg) for _ in range(width)]
        self.trends = [_TrendLabels(cfg) if trend else None for _ in range(width)]

    def scan(self, ks: np.ndarray, X: np.ndarray) -> list[tuple[int, int, AnomalyReport]]:
        out = []
        for c, xs in enumerate(X.T.tolist() if X.ndim == 2 else [X.tolist()]):
            alarms, z = cusum_run(self.dets[c], xs)
            seg, opens = self.segs[c], []
            emitted = seg.run(ks, alarms, np.abs(z), opens=opens) if alarms or seg.is_open else []
            trend = self.trends[c]
            if trend is None:
                labels = ["transient"] * len(emitted)
            else:
                labels = trend.advance(xs, opens, [j for j, _ in emitted])
            out += [(j, c, self._report(c, s, label)) for (j, s), label in zip(emitted, labels)]
        return out

    def flush(self) -> list[AnomalyReport]:
        return [self._report(c, s, "transient" if trend is None else trend.current())
                for c, (seg, trend) in enumerate(zip(self.segs, self.trends))
                for s in seg.flush()]

    def _report(self, c: int, s: Segment, label: str) -> AnomalyReport:
        return AnomalyReport(rule=self.rule, label=label, bus=self.bus, line=self.line,
                             start_k=s.start_k, end_k=s.end_k, severity=s.peak)


class LocalEngine:
    """Runs all local rules over one sensor's stream; grid-agnostic.

    `run` takes the stream in blocks of any length and `step` one frame at
    a time, as a block of one; the reports do not depend on where the
    stream is cut. `run` hands each block it derives to `sink(bus, block)`.
    """

    def __init__(self, bus: int, line_ratings: dict[str, np.ndarray],
                 cfg: Config | None = None, sink: DerivedSink | None = None):
        self.bus = bus
        self.cfg = cfg = cfg or Config()
        self.sink = sink
        self.freq = FrequencyTracker(cfg.lambda_forget)
        self.windows = {lid: WindowBuffer(cfg.m) for lid in line_ratings}
        # (line or None, derived quantity, rule) in report order
        rules: list[tuple[str | None, str, _Rule]] = [(None, "vmag", _Voltage(bus, cfg))]
        for lid, rating in line_ratings.items():
            rules.append((lid, "imag", _Overcurrent(bus, lid, rating, cfg)))
            rules += [(lid, name, _Change(rule, bus, lid, cfg, 3, trend=True))
                      for rule, name in ((ACTIVE_POWER, "p"), (REACTIVE_POWER, "q"),
                                         (CURRENT_MAG, "imag"))]
            rules.append((lid, "qss_residual",
                          _Change(QSS_VALIDITY, bus, lid, cfg, 1, trend=False)))
        rules.append((None, "beta_hat", _Change(FREQUENCY, bus, None, cfg, 1, trend=True)))
        # each with the number of its first channel, a rule having one per column
        self._rules, ci = [], 0
        for lid, name, rule in rules:
            self._rules.append((lid, name, ci, rule))
            ci += rule.width

    def derive(self, block: StreamColumns) -> DerivedBlock:
        """Derived columns of a block of frames.

        Advances the frequency tracker and the QSS windows, so each frame
        is derived once, in stream order.
        """
        V = np.ascontiguousarray(block.v)
        beta = np.array(self.freq.track(positive_sequence(V).tolist()))
        lines = {lid: self._derive_line(lid, V, block.ks, rows, I)
                 for lid, (rows, I) in block.lines.items()}
        return DerivedBlock(ks=block.ks, vmag=np.abs(V), beta_hat=beta, lines=lines)

    def _derive_line(self, lid: str, V: np.ndarray, ks: np.ndarray, rows: np.ndarray,
                     I: np.ndarray) -> LineColumns:
        if len(rows) < len(V):
            V, ks = V[rows], ks[rows]
        p, q = complex_power(V, I)
        resid = np.empty(0)
        w = self.windows.get(lid)
        if w is not None:
            # windows ending at the new rows only: skip rows already ended on
            skip = max(0, len(w) - (w.capacity - 1))
            Vx, Ix = w.extend(V, I)
            resid = qss_residuals(window_correlations(Vx[skip:], Ix[skip:], w.capacity))
        full = len(rows) - len(resid)
        return LineColumns(rows=rows, ks=ks, imag=np.abs(I), p=p, q=q,
                           qss_rows=rows[full:], qss_ks=ks[full:], qss_residual=resid)

    def run(self, block: StreamColumns) -> list[AnomalyReport]:
        """Advance over a block of frames; their reports in the order that
        feeding the frames to `step` one by one emits them."""
        if not len(block):
            return []
        d = self.derive(block)
        if self.sink is not None:
            self.sink(self.bus, d)
        found = []
        for lid, name, ci, rule in self._rules:
            rows, ks, X = d.column(lid, name)
            if len(ks):
                found += [(int(rows[j]), ci + c, r) for j, c, r in rule.scan(ks, X)]
        found.sort(key=lambda t: t[:2])
        return [r for *_, r in found]

    def step(self, frame: PhasorFrame) -> list[AnomalyReport]:
        return self.run(StreamColumns.from_frames([frame]))

    def finish(self) -> list[AnomalyReport]:
        return [r for *_, rule in self._rules for r in rule.flush()]
