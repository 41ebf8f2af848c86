"""Local engine: per-sensor stream analytics and the six local rules.

A local engine sees one sensor's phasor stream and nothing else -- no
admittances, no siting information. It works on blocks of frames, each a
row range of the stream's columns (`StreamColumns`). One vectorised derive
turns a block into derived columns: magnitudes, per-phase powers,
a frequency-drift estimate and a quasi-steady-state subspace residual per
incident line. Then one loop per scalar channel runs that channel's
threshold or change-detection rule and segments its violations into labeled
anomaly reports.

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
from dataclasses import dataclass, field
from itertools import repeat

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
    its line currents summed onto +0 in the frame's own line order. Each
    incident line has the rows of the frames that carry it, ascending, and
    its currents at those rows.
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

    def frames(self):
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
        rows, names, pos, cur = [], [], [], []
        for j, i in enumerate(keep):
            for p, (lid, c) in enumerate(frames[i].i_lines.items()):
                rows.append(j)
                names.append(lid)
                pos.append(p)
                cur.append(c)
        v = np.array([frames[i].v for i in keep], dtype=complex).reshape(len(keep), 3)
        ids = sorted(set(names))
        code = np.fromiter(map({lid: n for n, lid in enumerate(ids)}.__getitem__, names),
                           np.intp, len(names))
        return cls.assemble(bus, ks[keep], v, ids, np.array(rows, dtype=np.intp), code,
                            np.array(pos, dtype=np.intp),
                            np.array(cur, dtype=complex).reshape(len(cur), 3))

    @classmethod
    def assemble(cls, bus: int, ks: np.ndarray, v: np.ndarray, ids: list[str],
                 rows: np.ndarray, code: np.ndarray, pos: np.ndarray,
                 cur: np.ndarray) -> "StreamColumns":
        """Columns from one entry per (frame, line), in row order: the
        frame's row, the line's index in `ids` and its place among the
        frame's lines, and its currents."""
        vi = np.zeros((len(ks), 2, 3), dtype=complex)
        vi[:, 0] = v
        # a non-finite sum makes the sample non-finite, and the central
        # engine skips and counts it
        with np.errstate(invalid="ignore", over="ignore"):
            for p in range(int(pos.max()) + 1 if len(pos) else 0):
                at = pos == p
                vi[rows[at], 1] += cur[at]
        lines = {}
        for n, lid in enumerate(ids):
            at = code == n
            lines[lid] = (rows[at], cur[at])
        return cls(bus, ks, vi, lines)


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
    rows: list[int]            # block positions of those frames
    ks: list[int]              # their sample indices
    imag: np.ndarray           # (n, 3)
    p: np.ndarray              # (n, 3)
    q: np.ndarray              # (n, 3)
    qss_rows: list[int]        # the positions whose QSS window is full
    qss_ks: list[int]
    qss_residual: np.ndarray   # (len(qss_rows),)


@dataclass
class DerivedBlock:
    """Derived columns of a block of frames, one row per frame."""
    ks: list[int]
    vmag: np.ndarray                  # (T, 3)
    beta_hat: np.ndarray              # (T,), rad/sample
    lines: dict[str, LineColumns]

    def column(self, line: str | None, name: str, phase: int | None):
        """(block positions, sample indices, values as a list) of one scalar
        channel.

        A line has no value at frames without it, nor its QSS residual at
        frames before its window fills.
        """
        if line is None:
            src, rows, ks = self, range(len(self.ks)), self.ks
        else:
            src = self.lines.get(line)
            if src is None:
                return [], [], []
            if name == "qss_residual":
                rows, ks = src.qss_rows, src.qss_ks
            else:
                rows, ks = src.rows, src.ks
        values = getattr(src, name)
        return rows, ks, (values if phase is None else values[:, phase]).tolist()


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


def classify_voltage(vmag_series, t0_s: float = 1.0 / 60.0, ts_s: float = 1.0 / 120.0,
                     normal_low: float = 0.9, normal_high: float = 1.1,
                     interruption: float = 0.1, sustained_s: float = 60.0,
                     tau_samples: int | None = None):
    """Label a voltage-magnitude excursion from its samples and duration.

    Returns (label, tau_samples); label is None when the extremal magnitude
    never leaves the normal band. Sub-cycle excursions are labeled
    "transient" (they belong to the steady-state-validity rule). The duration
    defaults to the series length; segmented events pass their span instead.
    """
    series = np.asarray(vmag_series, dtype=float)
    tau = len(series) if tau_samples is None else tau_samples
    if tau == 0 or len(series) == 0:
        return None, 0
    tau_s = tau * ts_s
    vext = float(series[np.argmax(np.abs(series - 1.0))])
    if normal_low < vext < normal_high:
        return None, tau
    if tau_s < t0_s / 2.0:
        return "transient", tau
    long = tau_s > sustained_s
    if vext < interruption:
        return ("sustained_interruption" if long else "interruption"), tau
    if vext <= normal_low:
        return ("undervoltage" if long else "sag"), tau
    return ("overvoltage" if long else "swell"), tau


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

    def __init__(self, lambda_forget: float = 0.99):
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
    """Two-sided CUSUM over standardized innovations with adaptive baseline.

    The mean/variance baseline is a Welford estimate over the warmup window,
    then an exponential window with factor lambda_forget. A declared change
    resets both accumulators, re-seeds the mean at the declaring sample and
    re-enters warmup before re-arming (multiple change points).
    """
    nu: float = 0.5
    h: float = 5.0
    lambda_forget: float = 0.99
    warmup: int = 60
    var_floor: float = 1e-12
    mean_hat: float = 0.0
    var_hat: float = 0.0
    g_plus: float = 0.0
    g_minus: float = 0.0
    armed: bool = False
    last_z: float = 0.0
    _n: int = field(default=0, repr=False)
    _w_mean: float = field(default=0.0, repr=False)
    _w_m2: float = field(default=0.0, repr=False)

    @classmethod
    def from_config(cls, cfg: Config) -> "DetectorState":
        return cls(nu=cfg.nu, h=cfg.h, lambda_forget=cfg.lambda_forget,
                   warmup=cfg.warmup, var_floor=cfg.var_floor)


def cusum_run(state: DetectorState, xs) -> tuple[list[bool], list[float]]:
    """Advance the detector over a series.

    Returns, per sample, whether a change was declared and |z| (0 during
    warmup); `state.last_z` is the last sample's z.
    """
    nu, h, lam, warmup, floor = state.nu, state.h, state.lambda_forget, state.warmup, state.var_floor
    mean, var, gp, gm, armed = state.mean_hat, state.var_hat, state.g_plus, state.g_minus, state.armed
    n, w_mean, w_m2, z = state._n, state._w_mean, state._w_m2, state.last_z
    sqrt = math.sqrt
    changed: list[bool] = []
    zabs: list[float] = []
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
            z = 0.0
            changed.append(False)
            zabs.append(0.0)
            continue
        z = (x - mean) / sqrt(floor if floor > var else var)
        g = gp + z - nu
        gp = g if g > 0.0 else 0.0
        g = gm - z - nu
        gm = g if g > 0.0 else 0.0
        var = lam * var + (1.0 - lam) * (x - mean) ** 2
        mean = lam * mean + (1.0 - lam) * x
        if gp > h or gm > h:
            gp = gm = 0.0
            mean = x
            armed = False
            n, w_mean, w_m2 = 1, x, 0.0
            changed.append(True)
        else:
            changed.append(False)
        zabs.append(abs(z))
    state.mean_hat, state.var_hat, state.g_plus, state.g_minus, state.armed = mean, var, gp, gm, armed
    state._n, state._w_mean, state._w_m2, state.last_z = n, w_mean, w_m2, z
    return changed, zabs


def cusum_step(state: DetectorState, x: float) -> bool:
    """Advance the detector by one sample; True when a change is declared."""
    return cusum_run(state, (x,))[0][0]


def classify_trend(signal, change_index: int, window: int,
                   slope_min: float = 1e-4, variance_ratio: float = 2.0) -> str:
    """Label the excursion around a change as surge, drop or oscillation.

    Least-squares slope over the post-change window decides the direction;
    a flat slope with a post/pre variance blow-up is an oscillation.
    """
    sig = np.asarray(signal, dtype=float)
    post = sig[change_index:change_index + window]
    if len(post) < 3:
        raise ValueError("need >= 3 samples after the change")
    slope = float(np.polyfit(np.arange(len(post)), post, 1)[0])
    if slope > slope_min:
        return "surge"
    if slope < -slope_min:
        return "drop"
    pre = sig[max(0, change_index - window):change_index]
    pre_var = float(np.var(pre)) if len(pre) >= 2 else 0.0
    post_var = float(np.var(post))
    if post_var > variance_ratio * max(pre_var, 1e-300):
        return "oscillation"
    return "surge" if slope >= 0 else "drop"


@dataclass
class Segment:
    """One emission from the segmentation state machine."""
    start_k: int
    end_k: int | None          # None for the mid-event persistent emission
    last_k: int                # latest violation so far; equals end_k once closed
    peak: float = 0.0          # the event's running peak value at the emission


class EventSegmenter:
    """Groups a violation flag stream into events (local-engine flowchart).

    An event opens at the first violation; it closes once T1 consecutive
    samples pass with no new violation (end = last violation). When the
    violation count inside one open event reaches T2 + 1, a persistent
    emission is produced immediately and the event stays open.

    Each sample may carry a key and a value. The event's peak is the value
    of the sample with the largest key, the first one on a tie, among the
    event's violations, or with `span` among all its samples up to and
    including the one that closes it. The state is an open flag, three
    integers, the peak and its key, whatever the event's length.
    """

    def __init__(self, t1: int, t2: int, span: bool = False):
        self.t1 = t1
        self.t2 = t2
        self.span = span
        self._open = False
        self._start = 0
        self._last = 0
        self._count = 0
        self._key = 0.0
        self._peak = 0.0

    @property
    def open(self) -> bool:
        return self._open

    def run(self, ks, flags, keys=None, values=None,
            opens: list[int] | None = None) -> list[tuple[int, Segment]]:
        """Advance over a column; (position, emission) pairs in order.

        `values` default to `keys`, and keys to 0. When `opens` is given,
        the position of every sample that opens an event is appended to it.
        """
        keys = repeat(0.0) if keys is None else keys
        values = keys if values is None else values
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

    def step(self, k: int, violated: bool, key: float = 0.0) -> list[Segment]:
        return [s for _, s in self.run((k,), (violated,), (key,))]

    def flush(self) -> list[Segment]:
        if not self._open:
            return []
        self._open = False
        return [Segment(self._start, self._last, self._last, self._peak)]


def segment_events(flags, t1: int, t2: int, start_k: int = 0):
    """Run a flag sequence through the state machine; list of (start, end|None)."""
    flags = [bool(f) for f in flags]
    seg = EventSegmenter(t1, t2)
    emitted = [s for _, s in seg.run(range(start_k, start_k + len(flags)), flags)]
    return [(s.start_k, s.end_k) for s in emitted + seg.flush()]


def _trend_label(pre: list[float], post: list[float], cfg: Config) -> str:
    try:
        return classify_trend(np.array(pre + post, dtype=float), len(pre), cfg.trend_window,
                              cfg.slope_min, cfg.variance_ratio)
    except ValueError:
        return "surge" if (post and post[-1] >= (pre or [0])[-1]) else "drop"


class _TrendLabels:
    """Trend labels of one change channel's events.

    An event's label comes from the trend_window + 1 samples before its
    first change point and up to trend_window samples from it; a record
    emitted before that window fills is labeled from the samples so far,
    and that label stays. Samples are numbered from the channel's first.
    """

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self._hist: list[float] = []   # the latest samples, at least trend_window + 1
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
                    pre = self._hist[max(a - (w + 1), self._base) - self._base:a - self._base]
                    self._pending, self._label = (pre, a), None
            self._finish_filled(self._base + len(self._hist))
        drop = len(self._hist) - (w + 1)
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


class _Channel:
    """One scalar channel of a local rule: its segmenter and its reports.

    `scan` runs the channel over a column of its values. A subclass says
    which samples violate the rule and which value, by which key, the
    event's severity tracks, and builds the report.
    """
    span = False

    def __init__(self, rule: str, bus: int, line: str | None, cfg: Config):
        self.rule = rule
        self.bus = bus
        self.line = line
        self.cfg = cfg
        self.seg = EventSegmenter(cfg.t1, cfg.t2, span=self.span)

    def scan(self, ks: list[int], xs: list[float]) -> list[tuple[int, AnomalyReport]]:
        flags, keys, values = self._violations(xs)
        return [(j, self._report(s)) for j, s in self.seg.run(ks, flags, keys, values)]

    def flush(self) -> list[AnomalyReport]:
        return [self._report(s) for s in self.seg.flush()]


class _VoltageChannel(_Channel):
    """Magnitude band rule on one phase; severity is the event's first
    magnitude with the largest |v - 1|."""

    def __init__(self, bus: int, cfg: Config):
        super().__init__(VOLTAGE_MAG, bus, None, cfg)

    def _violations(self, xs):
        lo, hi = self.cfg.v_normal_low, self.cfg.v_normal_high
        return [not (lo < v < hi) for v in xs], [abs(v - 1.0) for v in xs], xs

    def _report(self, s: Segment) -> AnomalyReport:
        cfg = self.cfg
        label, _ = classify_voltage([s.peak], cfg.t0_s, cfg.ts_s,
                                    cfg.v_normal_low, cfg.v_normal_high,
                                    cfg.v_interruption, cfg.v_sustained_s,
                                    tau_samples=s.last_k - s.start_k + 1)
        return AnomalyReport(rule=VOLTAGE_MAG, label=label, bus=self.bus, line=None,
                             start_k=s.start_k, end_k=s.end_k, severity=s.peak)


class _OvercurrentChannel(_Channel):
    """Rating rule on one phase of a line; severity is peak current / rating."""

    def __init__(self, bus: int, line: str, rating: float, cfg: Config):
        super().__init__(OVERCURRENT, bus, line, cfg)
        self.rating = float(rating)

    def _violations(self, xs):
        rating = self.rating
        return [check_overcurrent(i, rating) for i in xs], xs, xs

    def _report(self, s: Segment) -> AnomalyReport:
        return AnomalyReport(rule=OVERCURRENT, label="overcurrent", bus=self.bus,
                             line=self.line, start_k=s.start_k, end_k=s.end_k,
                             severity=s.peak / self.rating)


class _ChangeChannel(_Channel):
    """CUSUM rule on one scalar channel; severity is the event's peak |z|.

    With `trend`, events are labeled surge, drop or oscillation from the
    signal around their first change point; without, "transient", as the
    steady-state-validity rule wants.
    """
    span = True

    def __init__(self, rule: str, bus: int, line: str | None, cfg: Config, trend: bool):
        super().__init__(rule, bus, line, cfg)
        self.det = DetectorState.from_config(cfg)
        self.trend = _TrendLabels(cfg) if trend else None

    def scan(self, ks, xs):
        changed, zabs = cusum_run(self.det, xs)
        opens: list[int] = []
        emitted = self.seg.run(ks, changed, zabs, opens=opens)
        if self.trend is None:
            labels = ["transient"] * len(emitted)
        else:
            labels = self.trend.advance(xs, opens, [j for j, _ in emitted])
        return [(j, self._report(s, label)) for (j, s), label in zip(emitted, labels)]

    def flush(self) -> list[AnomalyReport]:
        return [self._report(s, "transient" if self.trend is None else self.trend.current())
                for s in self.seg.flush()]

    def _report(self, s: Segment, label: str) -> AnomalyReport:
        return AnomalyReport(rule=self.rule, label=label, bus=self.bus, line=self.line,
                             start_k=s.start_k, end_k=s.end_k, severity=s.peak)


class LocalEngine:
    """Runs all local rules over one sensor's stream; grid-agnostic.

    `run` takes the stream in blocks of any length and `step` one frame at
    a time, as a block of one; the reports do not depend on where the
    stream is cut.
    """

    def __init__(self, bus: int, line_ratings: dict[str, np.ndarray],
                 cfg: Config | None = None):
        self.bus = bus
        self.cfg = cfg = cfg or Config()
        self.freq = FrequencyTracker(cfg.lambda_forget)
        self.windows = {lid: WindowBuffer(cfg.m) for lid in line_ratings}
        # (line or None, derived quantity, phase or None, channel) in report order
        chans: list[tuple[str | None, str, int | None, _Channel]] = [
            (None, "vmag", ph, _VoltageChannel(bus, cfg)) for ph in range(3)]
        for lid, rating in line_ratings.items():
            chans += [(lid, "imag", ph, _OvercurrentChannel(bus, lid, rating[ph], cfg))
                      for ph in range(3)]
            for rule, name in ((ACTIVE_POWER, "p"), (REACTIVE_POWER, "q"),
                               (CURRENT_MAG, "imag")):
                chans += [(lid, name, ph, _ChangeChannel(rule, bus, lid, cfg, trend=True))
                          for ph in range(3)]
            chans.append((lid, "qss_residual", None,
                          _ChangeChannel(QSS_VALIDITY, bus, lid, cfg, trend=False)))
        chans.append((None, "beta_hat", None,
                      _ChangeChannel(FREQUENCY, bus, None, cfg, trend=True)))
        self._channels = chans

    def derive(self, block: StreamColumns) -> DerivedBlock:
        """Derived columns of a block of frames.

        Advances the frequency tracker and the QSS windows, so each frame
        is derived once, in stream order.
        """
        V = np.ascontiguousarray(block.v)
        beta = np.array(self.freq.track(positive_sequence(V).tolist()))
        ks = block.ks.tolist()
        lines = {lid: self._derive_line(lid, V, ks, rows, I)
                 for lid, (rows, I) in block.lines.items()}
        return DerivedBlock(ks=ks, vmag=np.abs(V), beta_hat=beta, lines=lines)

    def _derive_line(self, lid: str, V: np.ndarray, ks: list[int], rows: np.ndarray,
                     I: np.ndarray) -> LineColumns:
        if len(rows) < len(V):
            V = V[rows]
            ks = [ks[j] for j in rows.tolist()]
        rows = rows.tolist()
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
        found = []
        for ci, (lid, name, ph, chan) in enumerate(self._channels):
            rows, ks, xs = d.column(lid, name, ph)
            if ks:
                found += [(rows[j], ci, r) for j, r in chan.scan(ks, xs)]
        found.sort(key=lambda t: t[:2])
        return [r for *_, r in found]

    def step(self, frame: PhasorFrame) -> list[AnomalyReport]:
        return self.run(StreamColumns.from_frames([frame]))

    def finish(self) -> list[AnomalyReport]:
        return [r for *_, chan in self._channels for r in chan.flush()]
