"""Ground-truthed phasor stream generation.

Streams are piecewise quasi-static: for each network state (baseline, fault
applied, fuse open, load changed) the three-phase network is solved for bus
voltages under constant-power injections, currents follow from the
admittances, and the whole phasor set rotates by the accumulated frequency
drift. State transitions are blended over two samples, standing in for the
two-cycle phasor-estimation delay of a real sensor. With zero noise and no
events every emitted sample satisfies the steady-state constraints exactly,
which makes the generator and the model module mutual oracles.
"""
from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, replace
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .analytics import PhasorFrame, StreamColumns
from .model import FeederModel, LineSegment, SystemMatrix, build_system

EVENT_KINDS = ("voltage_sag", "slg_fault", "fuse_open", "load_loss",
               "load_step", "replay_attack")

# balanced positive-sequence slack pattern
SLACK_V = np.exp(1j * np.array([0.0, -2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0]))

DEFAULT_FAULT_ADMITTANCE = 1e3  # p.u., single-line-to-ground surrogate

# `solve_network`'s fixed point: converged once no voltage moves more than
# _SOLVE_TOL p.u. in a step, each step under-relaxed by _SOLVE_RELAXATION
_SOLVE_TOL = 1e-10
_SOLVE_MAXITER = 400
_SOLVE_RELAXATION = 0.8


class ScenarioError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Event:
    kind: str
    start_k: int
    end_k: int
    bus: int | None = None
    line: str | None = None
    phase: str | None = None
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ScenarioError(f"unknown event kind {self.kind!r}")
        if self.start_k >= self.end_k:
            raise ScenarioError(f"{self.kind}: start {self.start_k} >= end {self.end_k}")
        if self.kind in ("slg_fault", "fuse_open") and (self.line is None or self.phase is None):
            raise ScenarioError(f"{self.kind} needs a line and a phase")
        if self.kind in ("load_loss", "load_step", "replay_attack") and self.bus is None:
            raise ScenarioError(f"{self.kind} needs a bus")


@dataclass(frozen=True)
class Scenario:
    feeder: str
    duration_s: float
    base_loads: dict[int, np.ndarray]         # bus -> complex (3,), p.u.
    beta_profile: tuple[tuple[int, float], ...] = ((0, 0.0),)
    noise_sigma: float = 1e-4
    events: tuple[Event, ...] = ()
    sensors: tuple[int, ...] = ()
    seed: int = 0
    start_time: str = "2026-01-01T00:00:00+00:00"
    sample_rate: float = 120.0

    @property
    def samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate))

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        d = json.loads(text)
        loads = {int(b): np.array([complex(p, q) for p, q in pqs])
                 for b, pqs in d.get("base_loads", {}).items()}
        events = tuple(Event(kind=e["kind"], start_k=int(e["start_k"]),
                             end_k=int(e["end_k"]),
                             bus=e.get("bus"), line=e.get("line"),
                             phase=e.get("phase"),
                             magnitude=float(e.get("magnitude", 1.0)))
                       for e in d.get("events", []))
        prev = -1
        for e in events:
            if e.start_k < prev:
                raise ScenarioError("events not time-ordered")
            prev = e.start_k
        return cls(feeder=d["feeder"], duration_s=float(d["duration_s"]),
                   base_loads=loads,
                   beta_profile=tuple((int(k), float(b)) for k, b in d.get("beta_profile", [[0, 0.0]])),
                   noise_sigma=float(d.get("noise_sigma", 1e-4)),
                   events=events,
                   sensors=tuple(int(b) for b in d.get("sensors", [])),
                   seed=int(d.get("seed", 0)),
                   start_time=d.get("start_time", "2026-01-01T00:00:00+00:00"),
                   sample_rate=float(d.get("sample_rate", 120.0)))

    def to_json(self) -> str:
        return json.dumps({
            "feeder": self.feeder, "duration_s": self.duration_s,
            "base_loads": {str(b): [[s.real, s.imag] for s in v]
                           for b, v in sorted(self.base_loads.items())},
            "beta_profile": [[k, b] for k, b in self.beta_profile],
            "noise_sigma": self.noise_sigma,
            "events": [{k: v for k, v in (("kind", e.kind), ("start_k", e.start_k),
                                          ("end_k", e.end_k), ("bus", e.bus),
                                          ("line", e.line), ("phase", e.phase),
                                          ("magnitude", e.magnitude)) if v is not None}
                       for e in self.events],
            "sensors": list(self.sensors), "seed": self.seed,
            "start_time": self.start_time, "sample_rate": self.sample_rate,
        }, indent=1)


@dataclass(frozen=True)
class GroundTruth:
    events: tuple[dict, ...]

    def to_json(self) -> str:
        return json.dumps({"events": list(self.events)}, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        return cls(events=tuple(json.loads(text)["events"]))


def active_phase_indices(feeder: FeederModel, lines: tuple[LineSegment, ...]) -> np.ndarray:
    """(bus, phase) rows that carry a conductor energized from the slack."""
    adj: dict[int, list[tuple[int, LineSegment]]] = {b.id: [] for b in feeder.buses}
    for l in lines:
        adj[l.from_bus].append((l.to_bus, l))
        adj[l.to_bus].append((l.from_bus, l))
    live = np.zeros((feeder.bus_count, 3), dtype=bool)
    for p in range(3):
        seen = {feeder.slack_bus}
        stack = [feeder.slack_bus]
        while stack:
            cur = stack.pop()
            live[feeder.index_of(cur), p] = True
            for nxt, l in adj[cur]:
                if nxt not in seen and l.series_admittance[p, p] != 0:
                    seen.add(nxt)
                    stack.append(nxt)
    return live.reshape(-1)


def solve_network(system: SystemMatrix, loads: dict[int, np.ndarray],
                  slack_v: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
    """Bus voltages for constant-power injections, fixed-point iteration.

    Loads on de-energized or absent phases are dropped; below 0.5 p.u. a
    load continues as constant impedance so bolted-fault states stay
    solvable, and the update is under-relaxed to keep the iteration stable
    around that knee. Returns the full 3B complex voltage vector (zeros on
    dead phases).
    """
    feeder = system.feeder
    B = feeder.bus_count
    if live is None:
        live = active_phase_indices(feeder, feeder.lines)
    s_idx = feeder.index_of(feeder.slack_bus)
    slack_rows = [3 * s_idx + p for p in range(3)]
    free = np.array([r for r in range(3 * B) if live[r] and r not in slack_rows], dtype=int)

    S = np.zeros(3 * B, dtype=complex)
    for bus, s3 in loads.items():
        i = feeder.index_of(bus)
        S[3 * i:3 * i + 3] = np.asarray(s3, dtype=complex)
    S[~live] = 0.0

    V = np.zeros(3 * B, dtype=complex)
    V[slack_rows] = slack_v
    if len(free) == 0:
        return V
    V[free] = np.tile(slack_v, B)[free]

    Y_ff = system.Y[np.ix_(free, free)]
    Y_fs = system.Y[np.ix_(free, slack_rows)]
    rhs_slack = Y_fs @ slack_v
    for _ in range(_SOLVE_MAXITER):
        v_f = V[free]
        mag = np.abs(v_f)
        shrink = np.minimum(mag / 0.5, 1.0) ** 2
        s_eff = S[free] * shrink
        with np.errstate(divide="ignore", invalid="ignore"):
            i_inj = np.where(mag > 1e-9, np.conj(-s_eff / np.where(mag > 1e-9, v_f, 1.0)), 0.0)
        v_new = np.linalg.solve(Y_ff, i_inj - rhs_slack)
        v_next = v_f + _SOLVE_RELAXATION * (v_new - v_f)
        delta = float(np.max(np.abs(v_next - v_f)))
        V[free] = v_next
        if delta <= _SOLVE_TOL:
            return V
    raise ConvergenceError(f"network solve did not converge (last step {delta:.3e})")


def _line_current(l: LineSegment, V: np.ndarray, feeder: FeederModel, at_bus: int) -> np.ndarray:
    i_self = feeder.index_of(at_bus)
    other = l.to_bus if at_bus == l.from_bus else l.from_bus
    i_o = feeder.index_of(other)
    v_m = V[3 * i_self:3 * i_self + 3]
    v_n = V[3 * i_o:3 * i_o + 3]
    return l.series_admittance @ (v_m - v_n) + (l.shunt_admittance / 2.0) @ v_m


@dataclass
class _State:
    """One quasi-static network condition and its solved phasors."""
    system: SystemMatrix
    lines: tuple[LineSegment, ...]
    V: np.ndarray


class _StateCache:
    def __init__(self, scenario: Scenario, feeder: FeederModel):
        self.scenario = scenario
        self.feeder = feeder
        self.base_system = build_system(feeder)
        self._cache: dict[tuple, _State] = {}

    def state_for(self, k: int) -> _State:
        key, mods = self._condition(k)
        st = self._cache.get(key)
        if st is None:
            st = self._solve(k, mods)
            self._cache[key] = st
        return st

    def _condition(self, k: int):
        faults, opens, load_mods, sag = [], [], [], 1.0
        for idx, e in enumerate(self.scenario.events):
            if not (e.start_k <= k < e.end_k):
                continue
            if e.kind == "slg_fault":
                faults.append((e.line, e.phase, e.magnitude))
            elif e.kind == "fuse_open":
                opens.append((e.line, e.phase))
            elif e.kind == "load_loss":
                load_mods.append((e.bus, 1.0 - e.magnitude))
            elif e.kind == "load_step":
                span = max(e.end_k - e.start_k - 1, 1)
                frac = min((k - e.start_k) / span, 1.0)
                scale = 1.0 + (e.magnitude - 1.0) * frac
                load_mods.append((e.bus, scale))
            elif e.kind == "voltage_sag":
                sag *= e.magnitude
        key = (tuple(faults), tuple(opens), tuple(load_mods), sag)
        return key, key

    def _solve(self, k: int, mods) -> _State:
        faults, opens, load_mods, sag = mods
        feeder = self.feeder
        lines = list(feeder.lines)
        if opens:
            open_set = {(lid, ph) for lid, ph in opens}
            for i, l in enumerate(lines):
                for lid, ph in open_set:
                    if l.id == lid:
                        p = "abc".index(ph)
                        ser = l.series_admittance.copy()
                        sh = l.shunt_admittance.copy()
                        ser[p, :] = 0; ser[:, p] = 0
                        sh[p, :] = 0; sh[:, p] = 0
                        lines[i] = replace(l, series_admittance=ser, shunt_admittance=sh)
        lines = tuple(lines)
        mod_feeder = replace(feeder, lines=lines) if opens else feeder
        system = build_system(mod_feeder) if opens else self.base_system
        Y = system.Y
        if faults:
            Y = Y.copy()
            for lid, ph, mag in faults:
                l = feeder.line(lid)
                p = "abc".index(ph)
                r = 3 * feeder.index_of(l.to_bus) + p
                Y[r, r] += mag if mag > 1.0 else DEFAULT_FAULT_ADMITTANCE
            system = SystemMatrix(feeder=mod_feeder, Y=Y,
                                  H=np.hstack([np.eye(Y.shape[0], dtype=complex), -Y]))
        loads = {b: v.copy() for b, v in self.scenario.base_loads.items()}
        for bus, scale in load_mods:
            if bus in loads:
                loads[bus] = loads[bus] * scale
        live = active_phase_indices(feeder, lines)
        try:
            V = solve_network(system, loads, SLACK_V * sag, live=live)
        except ConvergenceError as e:
            raise ConvergenceError(f"sample {k}: {e}") from None
        return _State(system=system, lines=lines, V=V)


def _roll_lateral_loads(feeder: FeederModel, loads: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Fold loads of reduced-away lateral buses onto their attachment bus."""
    if not feeder.lateral_provenance:
        return loads
    out: dict[int, np.ndarray] = {}
    removed = {b: root for root, subtree in feeder.lateral_provenance.items() for b in subtree}
    for bus, s in loads.items():
        target = removed.get(bus, bus)
        out[target] = out.get(target, np.zeros(3, dtype=complex)) + s
    return out


def generate(scenario: Scenario, feeder: FeederModel
             ) -> tuple[dict[int, list[PhasorFrame]], GroundTruth]:
    """Phasor streams per sensor bus plus the scenario's ground truth."""
    scenario = replace(scenario, base_loads=_roll_lateral_loads(feeder, scenario.base_loads))
    sensors = scenario.sensors or feeder.bus_ids
    for b in sensors:
        feeder.index_of(b)
    cache = _StateCache(scenario, feeder)
    rng = np.random.default_rng(scenario.seed)
    n = scenario.samples

    beta = np.zeros(n)
    for start_k, b in scenario.beta_profile:
        beta[start_k:] = b
    phase = np.cumsum(beta)

    # per-sample state with 2-sample raised-cosine blending at transitions
    keys = [cache._condition(k)[0] for k in range(n)]
    states = [cache.state_for(k) for k in range(n)]
    weights = np.ones(n)
    for k in range(1, n):
        if keys[k] != keys[k - 1]:
            for j, w in enumerate((0.25, 0.75)):
                if k + j < n and keys[k + j] == keys[k]:
                    weights[k + j] = w

    streams: dict[int, list[PhasorFrame]] = {b: [] for b in sensors}
    incident = {b: feeder.lines_at(b) for b in sensors}
    bus_mask = {b: np.array(feeder.bus_phases(b).present) for b in sensors}
    line_mask = {l.id: np.array(l.phases.present) for l in feeder.lines}
    sigma = scenario.noise_sigma / np.sqrt(2.0)

    def noisy(vec: np.ndarray, mask: np.ndarray) -> np.ndarray:
        # measurement noise exists only where a conductor exists
        if scenario.noise_sigma <= 0:
            return vec
        n = sigma * (rng.standard_normal(vec.shape) + 1j * rng.standard_normal(vec.shape))
        return vec + n * mask

    line_of = {}
    for k in range(n):
        st = states[k]
        w = weights[k]
        if w < 1.0 and k > 0:
            prev = states[k - 1] if weights[k - 1] == 1.0 else states[max(k - 2, 0)]
            V = w * st.V + (1.0 - w) * prev.V
        else:
            prev = None
            V = st.V
        rot = np.exp(1j * phase[k])
        for b in sensors:
            i_b = feeder.index_of(b)
            v = noisy(V[3 * i_b:3 * i_b + 3] * rot, bus_mask[b])
            i_lines = {}
            for l in incident[b]:
                cur_l = next(cl for cl in st.lines if cl.id == l.id)
                i_now = _line_current(cur_l, st.V, feeder, b)
                if prev is not None:
                    prev_l = next(cl for cl in prev.lines if cl.id == l.id)
                    i_prev = _line_current(prev_l, prev.V, feeder, b)
                    i_now = w * i_now + (1.0 - w) * i_prev
                i_lines[l.id] = noisy(i_now * rot, line_mask[l.id])
            streams[b].append(PhasorFrame(k=k, bus=b, v=v, i_lines=i_lines))

    base_V = states[0].V if not any(e.start_k == 0 for e in scenario.events) else None
    truth = []
    for e in scenario.events:
        entry = {"kind": e.kind, "start_k": e.start_k, "end_k": e.end_k,
                 "bus": e.bus, "line": e.line, "phase": e.phase,
                 "magnitude": e.magnitude,
                 "expected_rules": _expected_rules(e.kind)}
        if e.kind != "replay_attack" and base_V is not None:
            during = cache.state_for(e.start_k).V
            dv = np.abs(during - base_V).reshape(-1, 3).max(axis=1)
            entry["affected_buses"] = [feeder.buses[i].id
                                       for i in np.nonzero(dv > 1e-6)[0]]
        truth.append(entry)
    return streams, GroundTruth(events=tuple(truth))


def _expected_rules(kind: str) -> list[str]:
    return {
        "slg_fault": ["voltage_mag", "current_mag", "qss_validity"],
        "fuse_open": ["voltage_mag", "current_mag"],
        "load_loss": ["active_power", "current_mag"],
        "load_step": ["active_power"],
        "voltage_sag": ["voltage_mag"],
        "replay_attack": [],
    }[kind]


def apply_replay_attack(streams: dict[int, list[PhasorFrame]], sensor: int,
                        start: int, end: int, window: int = 120
                        ) -> dict[int, list[PhasorFrame]]:
    """Replace one sensor's frames in [start, end) with replayed history.

    The replay cycles the `window` frames immediately before `start`; other
    sensors are untouched. This models tampering on the uplink, so it is
    applied to the central engine's copy only.
    """
    if sensor not in streams:
        raise ScenarioError(f"sensor {sensor} not in streams")
    src = streams[sensor]
    if start < window or start < 1:
        raise ScenarioError("attack start precedes available history")
    hist = src[start - window:start]
    out = []
    for f in src:
        if start <= f.k < end:
            h = hist[(f.k - start) % window]
            out.append(PhasorFrame(k=f.k, bus=f.bus, v=h.v, i_lines=h.i_lines))
        else:
            out.append(f)
    new = dict(streams)
    new[sensor] = out
    return new


# ---------------------------------------------------------------- CSV I/O

CSV_HEADER = ("k,iso_time,v_a_re,v_a_im,v_b_re,v_b_im,v_c_re,v_c_im,"
              "line_id,i_a_re,i_a_im,i_b_re,i_b_im,i_c_re,i_c_im")


def iso_time(start_time: str, k: int, sample_rate: float) -> str:
    from datetime import datetime, timedelta
    t0 = datetime.fromisoformat(start_time)
    return (t0 + timedelta(seconds=k / sample_rate)).isoformat()


def write_stream_csv(path: str | Path, frames: list[PhasorFrame],
                     start_time: str, sample_rate: float = 120.0) -> None:
    lines = [CSV_HEADER]
    for f in frames:
        t = iso_time(start_time, f.k, sample_rate)
        v = ",".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in f.v)
        for lid in sorted(f.i_lines):
            i = ",".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in f.i_lines[lid])
            lines.append(f"{f.k},{t},{v},{lid},{i}")
    Path(path).write_text("\n".join(lines) + "\n")


# the columns read from a row, and how: k, the voltage's six parts, the
# line id and the currents' six parts; the timestamp is not read
_CSV_COLUMNS = (0, *range(2, 15))
_CSV_ROW = np.dtype([("k", "u8"), ("v", "f8", (6,)), ("line", "O"), ("i", "f8", (6,))])
_CSV_COMMAS = CSV_HEADER.count(",")   # a row has 15 fields
_CSV_CHUNK_CHARS = 1 << 20   # text parsed per np.loadtxt call
_CSV_PIECES = 16             # pieces of a rejected chunk
_STREAM_NAME = re.compile(r"bus([0-9]+)\.csv")


def read_stream_csv(path: str | Path) -> tuple[StreamColumns, int]:
    """One sensor's stream CSV as columns; returns (columns, skipped_row_count).

    The contract is in docs/streams.md. A row is malformed, and skipped,
    when it does not have 15 fields, its k or one of its 12 phasor parts
    does not parse, k is outside the u64 range that sample indices take on
    the wire, or a part is not finite. Of the good rows, the first at a k
    gives that frame's voltage, and the last at a (k, line) that line's
    currents; the frame's lines are in the order of their first rows, and
    frames are in k order.
    """
    parts, skipped = [], 0
    with open(path) as fh, warnings.catch_warnings():
        # some numpy versions read an integer written as a float ('12.0')
        # with only a DeprecationWarning; such a row is malformed here
        warnings.simplefilter("error", DeprecationWarning)
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ScenarioError(f"{path}: unexpected header")
        while lines := fh.readlines(_CSV_CHUNK_CHARS):
            commas = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines))
            whole = commas == _CSV_COMMAS
            if not whole.all():
                skipped += len(lines) - int(np.count_nonzero(whole))
                lines = list(compress(lines, whole.tolist()))
            skipped += _parse_rows(lines, parts)
    rows = np.concatenate(parts) if parts else np.empty(0, _CSV_ROW)
    finite = np.isfinite(rows["v"]).all(axis=1) & np.isfinite(rows["i"]).all(axis=1)
    if not finite.all():
        skipped += len(rows) - int(np.count_nonzero(finite))
        rows = rows[finite]
    return _stream_columns(_bus_from_name(Path(path)), rows), skipped


def _parse_rows(lines: list[str], out: list[np.ndarray]) -> int:
    """Parse rows of 15 fields onto `out`; returns how many were malformed.

    A chunk that the reader rejects is cut into up to 16 pieces, and each
    rejected piece again, until each bad row stands alone: a file of bad
    rows costs about one reader call per row.
    """
    if not lines:
        return 0
    try:
        out.append(np.loadtxt(lines, _CSV_ROW, delimiter=",", comments=None,
                              usecols=_CSV_COLUMNS, ndmin=1))
        return 0
    except (ValueError, DeprecationWarning):
        if len(lines) == 1:
            return 1
    step = -(-len(lines) // _CSV_PIECES)
    return sum(_parse_rows(lines[a:a + step], out) for a in range(0, len(lines), step))


def _stream_columns(bus: int, rows: np.ndarray) -> StreamColumns:
    """Columns of a stream's good rows, in file order."""
    if not len(rows):
        return StreamColumns(bus, np.empty(0, np.uint64), np.empty((0, 2, 3), complex), {})
    ids, code = np.unique(rows["line"].astype(str), return_inverse=True)
    k = rows["k"]
    # by k, then line, then file order: each (k, line) pair is a run
    order = np.lexsort((code, k))
    k_s, c_s = k[order], code[order]
    new_k = np.ones(len(k_s), dtype=bool)
    new_k[1:] = k_s[1:] != k_s[:-1]
    new_pair = new_k.copy()
    new_pair[1:] |= c_s[1:] != c_s[:-1]
    frame_at = np.flatnonzero(new_k)
    pair_at = np.flatnonzero(new_pair)
    frame_of_pair = (np.cumsum(new_k) - 1)[pair_at]
    first_row = order[pair_at]                                    # a pair's first row
    last_row = order[np.append(pair_at[1:], len(order)) - 1]      # and its last
    # a line's place in its frame: the order of the pairs' first rows
    by_first = np.lexsort((first_row, frame_of_pair))
    pos = np.empty(len(pair_at), dtype=np.intp)
    starts = np.searchsorted(frame_of_pair[by_first], frame_of_pair[by_first])
    pos[by_first] = np.arange(len(pair_at)) - starts
    v = rows["v"][np.minimum.reduceat(order, frame_at)]    # a frame's first row
    return StreamColumns.assemble(bus, k_s[frame_at], v.view(complex), ids.tolist(),
                                  frame_of_pair, c_s[pair_at], pos,
                                  rows["i"][last_row].view(complex))


def _bus_from_name(path: Path) -> int:
    """The sensor bus N of a file named bus<N>.csv, else -1."""
    m = _STREAM_NAME.fullmatch(path.name)
    return int(m.group(1)) if m else -1


def write_streams(outdir: str | Path, streams: dict[int, list[PhasorFrame]],
                  scenario: Scenario, truth: GroundTruth) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for bus, frames in sorted(streams.items()):
        write_stream_csv(outdir / f"bus{bus}.csv", frames,
                         scenario.start_time, scenario.sample_rate)
    (outdir / "groundtruth.json").write_text(truth.to_json())
    (outdir / "scenario.json").write_text(scenario.to_json())
