"""Local engine: per-sensor stream analytics and the six local rules.

A local engine sees one sensor's phasor stream and nothing else -- no
admittances, no siting information. Per sample it derives magnitudes,
per-phase powers, a frequency-drift estimate and a quasi-steady-state
subspace residual per incident line, runs threshold and change-detection
rules on each scalar channel, and segments rule violations into labeled
anomaly reports.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

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
class DerivedSample:
    k: int
    vmag: np.ndarray                       # (3,)
    imag: dict[str, np.ndarray]            # line -> (3,)
    p: dict[str, np.ndarray]               # line -> (3,)
    q: dict[str, np.ndarray]               # line -> (3,)
    beta_hat: float                        # rad/sample
    qss_residual: dict[str, float | None]  # None until window fills


def complex_power(v: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase active/reactive power: S_p = v_p * conj(i_p)."""
    s = v * np.conj(i)
    return s.real, s.imag


def check_overcurrent(imag: np.ndarray, rating: np.ndarray) -> np.ndarray:
    """Per-phase overcurrent flags; the rated value itself is allowed.

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


class FrequencyTracker:
    """Positive-sequence phase-increment frequency-drift estimator.

    beta_hat is the exponentially smoothed per-sample phase advance of the
    positive-sequence voltage, in rad/sample; the implied drift is
    beta_hat / (2 pi Ts) Hz. Swappable for a fancier estimator behind the
    same update() surface.
    """

    def __init__(self, lambda_forget: float = 0.99):
        self.lam = lambda_forget
        self.beta_hat = 0.0
        self.quality_drops = 0
        self._prev: complex | None = None
        self._seeded = False

    def update(self, v: np.ndarray) -> float:
        vp = complex(_POS_SEQ @ v)
        if self._prev is None:
            self._prev = vp
            return self.beta_hat
        if abs(vp) < _SEQ_EPS or abs(self._prev) < _SEQ_EPS:
            self.quality_drops += 1
            if abs(vp) >= _SEQ_EPS:
                self._prev = vp
            return self.beta_hat
        inc = float(np.angle(vp * np.conj(self._prev)))
        self._prev = vp
        if self._seeded:
            self.beta_hat = self.lam * self.beta_hat + (1.0 - self.lam) * inc
        else:
            self.beta_hat = inc
            self._seeded = True
        return self.beta_hat


def estimate_frequency_drift(v_window, lambda_forget: float = 0.99) -> float:
    """Run a fresh tracker over a window of voltage frames (>= 2)."""
    if len(v_window) < 2:
        raise ValueError("need at least 2 frames")
    tr = FrequencyTracker(lambda_forget)
    for v in v_window:
        tr.update(np.asarray(v, dtype=complex))
    return tr.beta_hat


class WindowBuffer:
    """Ring of the last M (v, i) pairs for one line."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("window needs M >= 2")
        self.capacity = capacity
        self._v: deque = deque(maxlen=capacity)
        self._i: deque = deque(maxlen=capacity)

    def push(self, v: np.ndarray, i: np.ndarray) -> None:
        self._v.append(np.asarray(v, dtype=complex))
        self._i.append(np.asarray(i, dtype=complex))

    @property
    def full(self) -> bool:
        return len(self._v) == self.capacity

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._v), np.array(self._i)


def qss_correlations(window: WindowBuffer) -> np.ndarray | None:
    """Stacked sample correlations [R_iv; R_vv], 6x3, scaled by 1/(M-1).

    R_iv = sum_r i[k-r] v[k-r]^H, R_vv likewise with the local bus voltage;
    emitted only once the window is full.
    """
    if not window.full:
        return None
    V, I = window.arrays()
    scale = 1.0 / (window.capacity - 1)
    r_iv = (I.T @ V.conj()) * scale
    r_vv = (V.T @ V.conj()) * scale
    return np.vstack([r_iv, r_vv])


def qss_residual(R: np.ndarray) -> float:
    """Frobenius residual of R R^H outside its best rank-1 approximation.

    Equals sqrt(sum_{i>=2} sigma_i^4(R)); zero exactly when R is rank one.
    """
    s = np.linalg.svd(np.asarray(R, dtype=complex), compute_uv=False)
    if s.size <= 1:
        return 0.0
    return float(np.sqrt(np.sum(s[1:] ** 4)))


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


def cusum_step(state: DetectorState, x: float) -> bool:
    """Advance the detector by one sample; True when a change is declared."""
    if not state.armed:
        state._n += 1
        d = x - state._w_mean
        state._w_mean += d / state._n
        state._w_m2 += d * (x - state._w_mean)
        if state._n >= state.warmup:
            state.mean_hat = state._w_mean
            state.var_hat = state._w_m2 / max(state._n - 1, 1)
            state.armed = True
        state.last_z = 0.0
        return False
    z = (x - state.mean_hat) / math.sqrt(max(state.var_hat, state.var_floor))
    state.last_z = z
    state.g_plus = max(0.0, state.g_plus + z - state.nu)
    state.g_minus = max(0.0, state.g_minus - z - state.nu)
    lam = state.lambda_forget
    state.var_hat = lam * state.var_hat + (1.0 - lam) * (x - state.mean_hat) ** 2
    state.mean_hat = lam * state.mean_hat + (1.0 - lam) * x
    if state.g_plus > state.h or state.g_minus > state.h:
        state.g_plus = 0.0
        state.g_minus = 0.0
        state.mean_hat = x
        state.armed = False
        state._n = 1
        state._w_mean = x
        state._w_m2 = 0.0
        return True
    return False


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


class EventSegmenter:
    """Groups a violation flag stream into events (local-engine flowchart).

    An event opens at the first violation; it closes once T1 consecutive
    samples pass with no new violation (end = last violation). When the
    violation count inside one open event reaches T2 + 1, a persistent
    emission is produced immediately and the event stays open. The state is
    an open flag and three integers, whatever the event's length.
    """

    def __init__(self, t1: int, t2: int):
        self.t1 = t1
        self.t2 = t2
        self._open = False
        self._start = 0
        self._last = 0
        self._count = 0

    @property
    def open(self) -> bool:
        return self._open

    def step(self, k: int, violated: bool) -> list[Segment]:
        if violated:
            if not self._open:
                self._open = True
                self._start = k
                self._count = 0
            self._count += 1
            self._last = k
            if self._count == self.t2 + 1:
                return [Segment(self._start, None, k)]
        elif self._open and k - self._last >= self.t1:
            return [self._close()]
        return []

    def flush(self) -> list[Segment]:
        return [self._close()] if self._open else []

    def _close(self) -> Segment:
        self._open = False
        return Segment(self._start, self._last, self._last)


def segment_events(flags, t1: int, t2: int, start_k: int = 0):
    """Run a flag sequence through the state machine; list of (start, end|None)."""
    seg = EventSegmenter(t1, t2)
    out = []
    for k, f in enumerate(flags, start=start_k):
        out.extend((s.start_k, s.end_k) for s in seg.step(k, bool(f)))
    out.extend((s.start_k, s.end_k) for s in seg.flush())
    return out


class _Channel:
    """One scalar channel of a local rule: its segmenter and its reports.

    Each subclass keeps a running severity for the open event, resets it
    when an event opens, and builds the report in `_report`.
    """

    def __init__(self, bus: int, line: str | None, cfg: Config):
        self.bus = bus
        self.line = line
        self.cfg = cfg
        self.seg = EventSegmenter(cfg.t1, cfg.t2)

    def flush(self) -> list[AnomalyReport]:
        return [self._report(s) for s in self.seg.flush()]


class _VoltageChannel(_Channel):
    """Magnitude band rule on one phase; severity is the extremal magnitude."""

    def __init__(self, bus: int, cfg: Config):
        super().__init__(bus, None, cfg)
        self._ext = 1.0

    def step(self, k: int, v: float) -> list[AnomalyReport]:
        violated = not (self.cfg.v_normal_low < v < self.cfg.v_normal_high)
        # keep the first sample with the largest |v - 1| of the event
        if violated and (not self.seg.open or abs(v - 1.0) > abs(self._ext - 1.0)):
            self._ext = v
        return [self._report(s) for s in self.seg.step(k, violated)]

    def _report(self, s: Segment) -> AnomalyReport:
        cfg = self.cfg
        label, _ = classify_voltage([self._ext], cfg.t0_s, cfg.ts_s,
                                    cfg.v_normal_low, cfg.v_normal_high,
                                    cfg.v_interruption, cfg.v_sustained_s,
                                    tau_samples=s.last_k - s.start_k + 1)
        return AnomalyReport(rule=VOLTAGE_MAG, label=label, bus=self.bus, line=None,
                             start_k=s.start_k, end_k=s.end_k, severity=self._ext)


class _OvercurrentChannel(_Channel):
    """Rating rule on one phase of a line; severity is peak current / rating."""

    def __init__(self, bus: int, line: str, rating: float, cfg: Config):
        super().__init__(bus, line, cfg)
        self.rating = float(rating)
        self._peak = 0.0

    def step(self, k: int, i: float) -> list[AnomalyReport]:
        violated = check_overcurrent(i, self.rating)
        if violated and (not self.seg.open or i > self._peak):
            self._peak = i
        return [self._report(s) for s in self.seg.step(k, violated)]

    def _report(self, s: Segment) -> AnomalyReport:
        return AnomalyReport(rule=OVERCURRENT, label="overcurrent", bus=self.bus,
                             line=self.line, start_k=s.start_k, end_k=s.end_k,
                             severity=self._peak / self.rating)


class _ChangeChannel(_Channel):
    """CUSUM rule on one scalar channel; severity is the event's peak |z|.

    Events are labeled "transient", as the steady-state-validity rule wants;
    `_TrendChannel` labels them from the signal around the onset instead.
    """

    def __init__(self, rule: str, bus: int, line: str | None, cfg: Config):
        super().__init__(bus, line, cfg)
        self.rule = rule
        self.det = DetectorState.from_config(cfg)
        self._peak_z = 0.0

    def step(self, k: int, x: float) -> list[AnomalyReport]:
        changed = cusum_step(self.det, x)
        opened = changed and not self.seg.open
        if opened:
            self._peak_z = 0.0
        if changed or self.seg.open:
            self._peak_z = max(self._peak_z, abs(self.det.last_z))
        self._observe(x, opened)
        return [self._report(s) for s in self.seg.step(k, changed)]

    def _observe(self, x: float, opened: bool) -> None:
        """Sees every sample after the detector, and whether it opened an event."""

    def _label(self) -> str:
        return "transient"

    def _report(self, s: Segment) -> AnomalyReport:
        return AnomalyReport(rule=self.rule, label=self._label(), bus=self.bus,
                             line=self.line, start_k=s.start_k, end_k=s.end_k,
                             severity=self._peak_z)


class _TrendChannel(_ChangeChannel):
    """CUSUM channel with trend labeling around event onset."""

    def __init__(self, rule: str, bus: int, line: str | None, cfg: Config):
        super().__init__(rule, bus, line, cfg)
        self.history: deque = deque(maxlen=cfg.trend_window + 1)
        self._trend: str | None = None
        self._post: list[float] = []
        self._pre: list[float] = []
        self._collecting = False

    def _observe(self, x: float, opened: bool) -> None:
        if opened:
            # snapshot the signal leading into the event for trend labeling
            self._pre = list(self.history)
            self._post = []
            self._collecting = True
            self._trend = None
        self.history.append(x)
        if self._collecting:
            self._post.append(x)
            if len(self._post) >= self.cfg.trend_window:
                self._finish_label()

    def _label(self) -> str:
        if self._collecting:
            self._finish_label()
        return self._trend

    def _finish_label(self) -> None:
        sig = np.array(self._pre + self._post, dtype=float)
        try:
            self._trend = classify_trend(sig, len(self._pre), self.cfg.trend_window,
                                         self.cfg.slope_min, self.cfg.variance_ratio)
        except ValueError:
            self._trend = "surge" if (self._post and self._post[-1] >= (self._pre or [0])[-1]) else "drop"
        self._collecting = False


class LocalEngine:
    """Runs all local rules over one sensor's stream; grid-agnostic."""

    def __init__(self, bus: int, line_ratings: dict[str, np.ndarray],
                 cfg: Config | None = None):
        self.bus = bus
        self.cfg = cfg = cfg or Config()
        self.freq = FrequencyTracker(cfg.lambda_forget)
        self.windows = {lid: WindowBuffer(cfg.m) for lid in line_ratings}
        # (line or None, DerivedSample field, phase or None, channel) in
        # report order; a line's channel skips frames where its field has no
        # value for the line (line absent, or QSS window not yet full)
        chans: list[tuple[str | None, str, int | None, _Channel]] = [
            (None, "vmag", ph, _VoltageChannel(bus, cfg)) for ph in range(3)]
        for lid, rating in line_ratings.items():
            chans += [(lid, "imag", ph, _OvercurrentChannel(bus, lid, rating[ph], cfg))
                      for ph in range(3)]
            for rule, fld in ((ACTIVE_POWER, "p"), (REACTIVE_POWER, "q"),
                              (CURRENT_MAG, "imag")):
                chans += [(lid, fld, ph, _TrendChannel(rule, bus, lid, cfg))
                          for ph in range(3)]
            chans.append((lid, "qss_residual", None,
                          _ChangeChannel(QSS_VALIDITY, bus, lid, cfg)))
        chans.append((None, "beta_hat", None, _TrendChannel(FREQUENCY, bus, None, cfg)))
        self._channels = chans

    def derive(self, frame: PhasorFrame) -> DerivedSample:
        vmag = np.abs(frame.v)
        imag, p, q, resid = {}, {}, {}, {}
        beta = self.freq.update(frame.v)
        for lid, i in frame.i_lines.items():
            imag[lid] = np.abs(i)
            p[lid], q[lid] = complex_power(frame.v, i)
            w = self.windows.get(lid)
            if w is not None:
                w.push(frame.v, i)
                R = qss_correlations(w)
                resid[lid] = qss_residual(R) if R is not None else None
        return DerivedSample(k=frame.k, vmag=vmag, imag=imag, p=p, q=q,
                             beta_hat=beta, qss_residual=resid)

    def step(self, frame: PhasorFrame) -> list[AnomalyReport]:
        d = self.derive(frame)
        out: list[AnomalyReport] = []
        for lid, fld, ph, chan in self._channels:
            x = getattr(d, fld)
            if lid is not None:
                x = x.get(lid)
                if x is None:
                    continue
            out.extend(chan.step(frame.k, x if ph is None else float(x[ph])))
        return out

    def finish(self) -> list[AnomalyReport]:
        return [r for *_, chan in self._channels for r in chan.flush()]
