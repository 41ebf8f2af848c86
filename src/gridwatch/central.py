"""Central engine: placement-aware subspace metric over fused sensor data.

With sensors at K of B buses the steady-state constraint H d = 0 splits into
H_u d_u + H_a d_a = 0. When H_u is tall (K > B/2) its left null space gives
an exact residual test; in the realistic K <= B/2 regime the test projects
onto the left singular vector of H_u with the smallest singular value, and
the scalar x[k] = |u^H H_a d_a|^2 / ||d_a||^2 stays small and smooth while
the grid is quasi steady-state.
"""
from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analytics import AnomalyReport, DetectorState, EventSegmenter, cusum_run
from .config import Config
from .model import PartitionedSystem

SMALLEST_SINGULAR = "smallest_singular"
NULL_PROJECTOR = "null_projector"

_PHASE_EPS = 1e-12


def phase_normalize(u: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first significant component is real-positive."""
    for val in u:
        if abs(val) > _PHASE_EPS:
            return u * (np.conj(val) / abs(val))
    return u


def smallest_left_singular_vector(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Left singular vector for the smallest singular value, phase-normalized.

    Structurally zero rows (absent-phase constraints of sensed buses, which
    state the tautology "no conductor, no injection") are excluded from the
    construction and re-embedded as zeros: a degenerate sigma_min = 0 on such
    a row would yield a metric with no detection power.
    """
    live = np.any(m != 0, axis=1)
    if not np.all(live):
        u_red, smin = smallest_left_singular_vector(m[live])
        u = np.zeros(m.shape[0], dtype=complex)
        u[live] = u_red
        return u, smin
    u_mat, s, _ = np.linalg.svd(m, full_matrices=False)
    return phase_normalize(u_mat[:, -1].copy()), float(s[-1])


@dataclass(frozen=True)
class CentralModel:
    partition: PartitionedSystem
    mode: str
    u_us: np.ndarray | None = None           # unit 3B-vector, smallest-singular mode
    sigma_min: float = 0.0
    null_projector: np.ndarray | None = None  # I - H_u H_u^+, tall mode

    @property
    def sensor_buses(self) -> tuple[int, ...]:
        return self.partition.placement.sensor_buses

    @cached_property
    def metric_operator(self) -> np.ndarray:
        """M = u^H H_a (one row) or P H_a, as the real (12K, 2m) matrix A
        with d.view(float) @ A = the real and imaginary parts of M d,
        interleaved."""
        h_a = self.partition.H_a
        m = (np.conj(self.u_us)[None] @ h_a if self.mode == SMALLEST_SINGULAR
             else self.null_projector @ h_a)
        a = np.empty((2 * m.shape[1], 2 * m.shape[0]))
        a[0::2, 0::2] = m.real.T
        a[1::2, 0::2] = -m.imag.T
        a[0::2, 1::2] = m.imag.T
        a[1::2, 1::2] = m.real.T
        return a


def build_central_model(partition: PartitionedSystem) -> CentralModel:
    h_u = partition.H_u
    rows = h_u.shape[0]
    if h_u.shape[1] == 0:
        # full observability: nothing is unavailable, the projector is I
        return CentralModel(partition=partition, mode=NULL_PROJECTOR,
                            null_projector=np.eye(rows, dtype=complex))
    if h_u.shape[1] >= rows:
        u, smin = smallest_left_singular_vector(h_u)
        return CentralModel(partition=partition, mode=SMALLEST_SINGULAR,
                            u_us=u, sigma_min=smin)
    proj = np.eye(rows, dtype=complex) - h_u @ np.linalg.pinv(h_u)
    return CentralModel(partition=partition, mode=NULL_PROJECTOR, null_projector=proj)


def central_xs(model: CentralModel, D: np.ndarray) -> np.ndarray:
    """Scale-invariant steady-state inconsistency x = ||M d||^2 / ||d||^2 of
    every row d of D (n, 6K); NaN where ||d|| is zero or not finite.

    Real arithmetic, with one stacked product that makes the same BLAS call
    for every row and sums along each row, so a row's bits do not depend on
    how many rows D has.
    """
    dv = np.ascontiguousarray(D, dtype=complex).view(float)
    r = np.matmul(dv[:, None, :], model.metric_operator)[:, 0, :]
    with np.errstate(all="ignore"):
        den = (dv * dv).sum(axis=1)
        x = (r * r).sum(axis=1) / den
    x[~((den > 0.0) & (den < np.inf))] = np.nan
    return x


@dataclass(frozen=True)
class FusedBlock:
    """Consecutive fused samples: row r of D is d_a at sample ks[r]."""
    ks: np.ndarray         # uint64 (n,)
    D: np.ndarray          # complex (n, 6K): injections, then voltages, per sensor
    complete: np.ndarray   # bool (n,): every sensor delivered the sample


_NO_KS = np.empty(0, dtype=np.uint64)
_NO_VI = np.empty((0, 2, 3), dtype=complex)


@dataclass(frozen=True)
class Released:
    """Samples a FrameAligner released together: `ks` (uint64, ascending),
    per sensor the rows of `ks` it delivered with their `vi` columns, and
    which samples every sensor delivered."""
    ks: np.ndarray
    cols: dict[int, tuple[np.ndarray, np.ndarray]]   # sensor -> (rows, vi)
    complete: np.ndarray


@dataclass
class Arrivals:
    """One sensor's arrival counts, as if its frames came one at a time."""
    high: int = -1        # highest k delivered, -1 before the first
    frames: int = 0       # new k delivered
    duplicates: int = 0   # k at or below an earlier k of the sensor, dropped
    gaps: int = 0         # k skipped between new ones


class FrameAligner:
    """Groups per-sensor sample columns by k on a logical watermark.

    `push(sensor, ks, vi)` takes a run of a sensor's samples as
    `analytics.StreamColumns` lays them out: `ks` (uint64) and `vi` (complex
    (m, 2, 3)), each sample's voltage and then its summed line currents.
    The run may come in any order. A k is new for the sensor where it
    exceeds the sensor's highest k so far and every earlier k of the run;
    the others are duplicates and are dropped. The sensor's `arrivals`
    count new frames, duplicates and skipped k as if the frames came one
    at a time, so they do not depend on where a stream is cut.

    Sample k is released once every expected sensor has delivered it, or
    once no sensor can still deliver it: each has either delivered a later
    k' > k or ended its session. So with w the smallest highest-delivered k
    over the sensors that have not ended, everything pending below w is
    released, and w itself only if every sensor delivered it. A sensor that
    has not sent anything yet holds every k back. Sensors missing from a
    released sample count as a gap downstream, so every caller sees the same
    samples whatever the machine timing. No release reads a clock. Releases
    are strictly ascending in k; a new sample for an already released k is
    dropped and counted in `late`.
    """

    def __init__(self, sensors):
        self.sensors = frozenset(sensors)
        self.arrivals = {s: Arrivals() for s in sorted(self.sensors)}
        self._pending = {s: (_NO_KS, _NO_VI) for s in self.sensors}
        self._ended: set[int] = set()
        self._last: int | None = None       # highest k released
        self.stale_releases = 0             # samples released with a sensor missing
        self.late = 0                       # samples for an already released k

    @property
    def pending(self) -> np.ndarray:
        """The samples held back, ascending."""
        return np.unique(np.concatenate([ks for ks, _ in self._pending.values()]))

    def push(self, sensor: int, ks: np.ndarray, vi: np.ndarray) -> list[Released]:
        if sensor not in self.sensors:
            raise ValueError(f"sensor {sensor} is not expected")
        arr = self.arrivals[sensor]
        new = np.ones(len(ks), dtype=bool)
        new[1:] = ks[1:] > np.maximum.accumulate(ks)[:-1]
        if arr.high >= 0:
            new &= ks > arr.high
        n = int(np.count_nonzero(new))
        arr.duplicates += len(ks) - n
        if n == 0:
            return []
        if n < len(ks):
            ks, vi = ks[new], vi[new]
        first, last = int(ks[0]), int(ks[-1])
        arr.gaps += last - first - (n - 1) + (first - arr.high - 1 if arr.high >= 0 else 0)
        arr.frames += n
        arr.high = last
        self._ended.discard(sensor)
        if self._last is not None:
            late = int(ks.searchsorted(np.uint64(self._last), side="right"))
            self.late += late
            ks, vi = ks[late:], vi[late:]
        if len(ks):
            old_ks, old_vi = self._pending[sensor]
            if len(old_ks):
                ks, vi = np.concatenate((old_ks, ks)), np.concatenate((old_vi, vi))
            self._pending[sensor] = (ks, vi)
        return self._release()

    def end(self, sensor: int) -> list[Released]:
        """The sensor's session is over: it no longer holds any k back."""
        self._ended.add(sensor)
        return self._release()

    def flush(self) -> list[Released]:
        """Release everything still pending, e.g. when a run times out."""
        return self._release(flush=True)

    def _release(self, flush: bool = False) -> list[Released]:
        live = [self.arrivals[s].high for s in self.sensors if s not in self._ended]
        if flush or not live:
            cut = {s: len(ks) for s, (ks, _) in self._pending.items()}
        else:
            w = min(live)
            if w < 0:
                return []
            cut = {s: int(ks.searchsorted(np.uint64(w))) for s, (ks, _) in self._pending.items()}
            if all(ks[cut[s]:cut[s] + 1].tolist() == [w]
                   for s, (ks, _) in self._pending.items()):
                cut = {s: c + 1 for s, c in cut.items()}
        cut = {s: c for s, c in cut.items() if c}
        if not cut:
            return []
        ks_all = np.unique(np.concatenate([self._pending[s][0][:c] for s, c in cut.items()]))
        count = np.zeros(len(ks_all), dtype=np.intp)
        cols = {}
        for s, c in cut.items():
            ks, vi = self._pending[s]
            rows = np.searchsorted(ks_all, ks[:c])
            count[rows] += 1
            cols[s] = (rows, vi[:c])
            self._pending[s] = (ks[c:], vi[c:])
        complete = count == len(self.sensors)
        self.stale_releases += len(ks_all) - int(np.count_nonzero(complete))
        self._last = int(ks_all[-1])
        return [Released(ks=ks_all, cols=cols, complete=complete)]


def group_frames(sensors, columns: dict[int, tuple[np.ndarray, np.ndarray]],
                 block: int) -> Iterator[list[Released]]:
    """Recorded streams, as each sensor's (ks, vi) columns, grouped by k
    through one FrameAligner in rounds: each sensor pushes its next `block`
    samples, and what a round releases comes out together; at the end every
    sensor ends. A sensor without columns has no samples."""
    aligner = FrameAligner(sensors)
    cols = {s: columns.get(s, (_NO_KS, _NO_VI)) for s in sensors}
    for start in range(0, max(len(ks) for ks, _ in cols.values()), block):
        out = []
        for s, (ks, vi) in cols.items():
            out += aligner.push(s, ks[start:start + block], vi[start:start + block])
        if out:
            yield out
    out = [r for s in sensors for r in aligner.end(s)]
    if out:
        yield out


def fuse_frames(model: CentralModel, released: list[Released]) -> FusedBlock:
    """Scatter released samples, at least one, into one block of d_a rows.

    Per sensor in the partition's order, a row holds the summed line
    currents (the bus's net injection) and then the voltages; a sensor
    missing at a sample contributes zeros.
    """
    buses = model.sensor_buses
    ks = np.concatenate([r.ks for r in released])
    D = np.zeros((len(ks), 2, len(buses), 3), dtype=complex)
    at = 0
    for r in released:
        for j, b in enumerate(buses):
            col = r.cols.get(b)
            if col is not None:
                rows, vi = col
                D[at + rows, :, j] = vi[:, ::-1]
        at += len(r.ks)
    return FusedBlock(ks=ks, D=D.reshape(len(ks), -1),
                      complete=np.concatenate([r.complete for r in released]))


@dataclass(frozen=True)
class CentralChangeRecord:
    """One change cluster on the central metric."""
    start_k: int
    end_k: int | None
    change_ks: tuple[int, ...]
    severity: float

    def to_dict(self) -> dict:
        return {"rule": "central_subspace", "start_k": self.start_k,
                "end_k": self.end_k, "persistent": self.end_k is None,
                "change_ks": list(self.change_ks), "severity": self.severity}

    @classmethod
    def from_dict(cls, d: dict) -> "CentralChangeRecord":
        return cls(start_k=int(d["start_k"]),
                   end_k=None if d["end_k"] is None else int(d["end_k"]),
                   change_ks=tuple(int(k) for k in d["change_ks"]),
                   severity=float(d["severity"]))


class CentralChangeTracker:
    """CUSUM + segmentation over the x[k] series, with gap accounting.

    `step` takes a fused block; a single sample is a block of one, and the
    records do not depend on where the stream is cut. Each block's samples
    with a value go to `sink(ks, xs)`, so the tracker itself keeps no
    per-sample history.
    """

    def __init__(self, model: CentralModel, cfg: Config | None = None,
                 sink: Callable[[list[int], list[float]], None] | None = None):
        self.model = model
        self.cfg = cfg = cfg or Config()
        self.sink = sink
        self.det = DetectorState(cfg)
        self.seg = EventSegmenter(cfg.t1, cfg.t2)
        self.gaps = 0      # samples with a sensor missing
        self.skipped = 0   # complete samples whose d_a is zero or not finite
        self._change_ks: list[int] = []

    def step(self, block: FusedBlock) -> list[CentralChangeRecord]:
        x = central_xs(self.model, block.D)
        n_complete = int(np.count_nonzero(block.complete))
        keep = block.complete & np.isfinite(x)
        self.gaps += len(block.ks) - n_complete
        self.skipped += n_complete - int(np.count_nonzero(keep))
        ks = block.ks[keep]
        xs = x[keep].tolist()
        if self.sink is not None:
            self.sink(ks.tolist(), xs)
        alarms, z = cusum_run(self.det, xs)
        opens: list[int] = []
        emitted = (self.seg.run(ks, alarms, np.abs(z), opens=opens)
                   if alarms or self.seg.is_open else [])
        # replay change points and emissions in stream order, a change
        # before an emission at the same sample
        opened = set(opens)
        out = []
        for j, seg in sorted([(j, None) for j in alarms] + emitted,
                             key=lambda t: (t[0], t[1] is not None)):
            if seg is not None:
                out.append(self._record(seg))
                continue
            if j in opened:
                self._change_ks = []
            self._change_ks.append(int(ks[j]))
        return out

    def finish(self) -> list[CentralChangeRecord]:
        return [self._record(s) for s in self.seg.flush()]

    def _record(self, seg) -> CentralChangeRecord:
        return CentralChangeRecord(start_k=seg.start_k, end_k=seg.end_k,
                                   change_ks=tuple(self._change_ks), severity=seg.peak)


@dataclass(frozen=True)
class LogEntry:
    origin: str        # sensor bus id as text, or "central"
    incident: int
    record: AnomalyReport | CentralChangeRecord

    def to_dict(self, epoch: str | None = None, sample_rate: float = 120.0) -> dict:
        d = self.record.to_dict()
        d["origin"] = self.origin
        d["incident"] = self.incident
        if epoch is not None:
            from .synth import iso_time
            d["start_time"] = iso_time(epoch, d["start_k"], sample_rate)
            d["end_time"] = (iso_time(epoch, d["end_k"], sample_rate)
                             if d["end_k"] is not None else None)
        return d


@dataclass
class EventLog:
    entries: list[LogEntry] = field(default_factory=list)

    def to_jsonl(self, epoch: str | None = None, sample_rate: float = 120.0) -> str:
        return "".join(json.dumps(e.to_dict(epoch, sample_rate), sort_keys=True) + "\n"
                       for e in self.entries)

    @classmethod
    def from_jsonl(cls, text: str) -> "EventLog":
        entries = []
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            origin, incident = d.pop("origin"), d.pop("incident")
            d.pop("start_time", None)
            d.pop("end_time", None)
            rec = (CentralChangeRecord.from_dict(d) if d.get("rule") == "central_subspace"
                   else AnomalyReport.from_dict(d))
            entries.append(LogEntry(origin=origin, incident=incident, record=rec))
        return cls(entries)


def _entry_key(origin: str, rec) -> tuple:
    if isinstance(rec, AnomalyReport):
        return (rec.start_k, 1, origin, rec.rule, rec.bus, rec.line or "", rec.label)
    return (rec.start_k, 0, origin, "central_subspace", -1, "", "")


def _event_identity(origin: str, rec) -> tuple:
    if isinstance(rec, AnomalyReport):
        return (origin, rec.rule, rec.bus, rec.line, rec.start_k)
    return (origin, "central_subspace", None, None, rec.start_k)


def fuse_reports(local: list[tuple[str, AnomalyReport]],
                 central: list[CentralChangeRecord]) -> EventLog:
    """Merge local and central records, assigning interval-overlap incidents.

    A persistent emission followed by the close of the same event collapses
    to the closed record. Entries overlapping in [start, end] share one
    incident id; ordering and ids are deterministic.
    """
    merged: dict[tuple, tuple[str, object]] = {}
    for origin, rec in list(local) + [("central", r) for r in central]:
        key = _event_identity(origin, rec)
        prev = merged.get(key)
        if prev is None or prev[1].end_k is None:
            merged[key] = (origin, rec)
    items = sorted(merged.values(), key=lambda p: _entry_key(*p))

    entries: list[LogEntry] = []
    incident = -1
    reach = None
    for origin, rec in items:
        end = rec.end_k if rec.end_k is not None else rec.start_k
        if reach is None or rec.start_k > reach:
            incident += 1
            reach = end
        else:
            reach = max(reach, end)
        entries.append(LogEntry(origin=origin, incident=incident, record=rec))
    return EventLog(entries)
