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

from .analytics import StreamColumns
from .model import FeederModel, LineSegment, SystemMatrix, build_system, reachable

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
    live = np.zeros((feeder.bus_count, 3), dtype=bool)
    for p in range(3):
        (on,) = reachable([l for l in lines if l.series_admittance[p, p] != 0],
                          [feeder.slack_bus])
        live[[feeder.index_of(b) for b in on], p] = True
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
        key = self._condition(k)
        if key not in self._cache:
            self._cache[key] = self._solve(k, key)
        return self._cache[key]

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
        return tuple(faults), tuple(opens), tuple(load_mods), sag

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
             ) -> tuple[dict[int, StreamColumns], GroundTruth]:
    """Phasor streams per sensor bus, as columns, plus the scenario's ground truth."""
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
    states = [cache.state_for(k) for k in range(n)]
    weights = np.ones(n)
    for k in range(1, n):
        if states[k] is not states[k - 1]:
            weights[k] = 0.25
            if k + 1 < n and states[k + 1] is states[k]:
                weights[k + 1] = 0.75

    # a channel is a sensor's voltage or one incident line's current, in
    # the order the noise is drawn: sensor by sensor, the voltage first
    incident = {b: feeder.lines_at(b) for b in sensors}
    channels = [(b, l) for b in sensors for l in (None, *incident[b])]

    def phasors(st: _State) -> np.ndarray:
        """The channels' phasors in one state, (channels, 3)."""
        out = []
        for b, l in channels:
            if l is None:
                i_b = feeder.index_of(b)
                out.append(st.V[3 * i_b:3 * i_b + 3])
            else:
                cur_l = next(cl for cl in st.lines if cl.id == l.id)
                out.append(_line_current(cur_l, st.V, feeder, b))
        return np.array(out)

    distinct: dict[int, tuple[int, _State]] = {}   # id(state) -> (its row in `solved`, state)
    at = np.array([distinct.setdefault(id(st), (len(distinct), st))[0] for st in states],
                  dtype=np.intp)
    solved = np.array([phasors(st) for _, st in distinct.values()])
    x = solved[at]                                     # (n, channels, 3)
    for k in np.flatnonzero(weights < 1.0):
        w = weights[k]
        prev = at[k - 1] if weights[k - 1] == 1.0 else at[max(k - 2, 0)]
        x[k] = w * solved[at[k]] + (1.0 - w) * solved[prev]
    x *= np.exp(1j * phase)[:, None, None]
    if scenario.noise_sigma > 0:
        # measurement noise exists only where a conductor exists; per
        # sample and channel, 3 real parts and then 3 imaginary
        mask = np.array([(feeder.bus_phases(b) if l is None else l.phases).present
                         for b, l in channels])
        z = rng.standard_normal((n, len(channels), 6))
        x += scenario.noise_sigma / np.sqrt(2.0) * (z[..., :3] + 1j * z[..., 3:]) * mask

    ks, rows = np.arange(n, dtype=np.uint64), np.arange(n)
    streams: dict[int, StreamColumns] = {}
    c = 0
    for b in sensors:
        lines = {l.id: (rows, x[:, c + j].copy()) for j, l in enumerate(incident[b], 1)}
        streams[b] = StreamColumns.assemble(b, ks, x[:, c], lines)
        c += 1 + len(incident[b])

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


def apply_replay_attack(streams: dict[int, StreamColumns], sensor: int,
                        start: int, end: int, window: int = 120
                        ) -> dict[int, StreamColumns]:
    """Replace one sensor's frames at k in [start, end) with replayed history.

    The replay cycles the `window` rows immediately before row `start`;
    other sensors are untouched. This models tampering on the uplink, so it
    is applied to the central engine's copy only.
    """
    if sensor not in streams:
        raise ScenarioError(f"sensor {sensor} not in streams")
    src = streams[sensor]
    if start < window or start < 1:
        raise ScenarioError("attack start precedes available history")
    take = np.arange(len(src))   # the row each frame's phasors come from
    hit = (src.ks >= start) & (src.ks < end)
    take[hit] = start - window + (src.ks[hit].astype(np.intp) - start) % window
    lines = {}
    for lid, (at, cur) in src.lines.items():
        pos = np.full(len(src), -1)   # the line's entry at each row, if any
        pos[at] = np.arange(len(at))
        p = pos[take]
        lines[lid] = (np.flatnonzero(p >= 0), cur[p[p >= 0]])
    return {**streams, sensor: StreamColumns(src.bus, src.ks, src.vi[take], lines)}


# ---------------------------------------------------------------- CSV I/O

CSV_HEADER = ("k,iso_time,v_a_re,v_a_im,v_b_re,v_b_im,v_c_re,v_c_im,"
              "line_id,i_a_re,i_a_im,i_b_re,i_b_im,i_c_re,i_c_im")


def iso_time(start_time: str, k: int, sample_rate: float) -> str:
    from datetime import datetime, timedelta
    t0 = datetime.fromisoformat(start_time)
    return (t0 + timedelta(seconds=k / sample_rate)).isoformat()


def write_stream_csv(path: str | Path, stream: StreamColumns,
                     start_time: str, sample_rate: float = 120.0) -> None:
    """One row per frame and line, frames in row order and lines by id."""
    k = stream.ks.tolist()
    head = [f"{kk},{iso_time(start_time, kk, sample_rate)},{','.join(map(repr, v))}"
            for kk, v in zip(k, stream.v.view(float).tolist())]
    rows, text = [np.empty(0, np.intp)], []
    for lid, (at, cur) in sorted(stream.lines.items()):
        rows.append(at)
        text += [f"{head[j]},{lid},{','.join(map(repr, i))}"
                 for j, i in zip(at.tolist(), cur.view(float).tolist())]
    order = np.argsort(np.concatenate(rows), kind="stable").tolist()
    Path(path).write_text("\n".join([CSV_HEADER, *map(text.__getitem__, order)]) + "\n")


# the columns read from a row, and how: k, the voltage's six parts, the
# line id and the currents' six parts; the timestamp is not read
_CSV_COLUMNS = (0, *range(2, 15))
_CSV_ROW = np.dtype([("k", "u8"), ("v", "f8", (6,)), ("line", "O"), ("i", "f8", (6,))])
_CSV_COMMAS = CSV_HEADER.count(",")   # a row has 15 fields
_CSV_CHUNK_CHARS = 1 << 20   # text parsed per np.loadtxt call
_CSV_PIECES = 16             # pieces of a rejected chunk
_STREAM_NAME = re.compile(r"bus([0-9]+)\.csv")
_UNDECODED = re.compile("[\udc80-\udcff]")   # an undecodable byte, surrogate-escaped


def read_stream_csv(path: str | Path) -> tuple[StreamColumns, int]:
    """One sensor's stream CSV as columns; returns (columns, skipped_row_count).

    The contract is in docs/streams.md. A row is malformed, and skipped,
    when it does not have 15 fields, holds a byte that does not decode,
    its k or one of its 12 phasor parts does not parse, k is outside the
    u64 range that sample indices take on the wire, or a part is not
    finite. Of the good rows, the first at a k gives that frame's voltage,
    and the last at a (k, line) that line's currents; a frame's currents
    are summed in line-id order, whatever the order of its rows, and
    frames are in k order.
    """
    parts, skipped = [], 0
    # a byte that does not decode reads as a lone surrogate, which no field
    # may hold: its row is malformed, and its header unexpected
    with open(path, errors="surrogateescape") as fh, warnings.catch_warnings():
        # some numpy versions read an integer written as a float ('12.0')
        # with only a DeprecationWarning; such a row is malformed here
        warnings.simplefilter("error", DeprecationWarning)
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ScenarioError(f"{path}: unexpected header")
        while lines := fh.readlines(_CSV_CHUNK_CHARS):
            commas = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines))
            ok = commas == _CSV_COMMAS
            if not all(map(str.isascii, lines)):
                ok &= [_UNDECODED.search(line) is None for line in lines]
            if not ok.all():
                skipped += len(lines) - int(np.count_nonzero(ok))
                lines = list(compress(lines, ok.tolist()))
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
    last_row = order[np.append(pair_at[1:], len(order)) - 1]      # a pair's last row
    v = rows["v"][np.minimum.reduceat(order, frame_at)]    # a frame's first row
    line_of_pair, cur = c_s[pair_at], rows["i"][last_row].view(complex)
    lines = {}
    for n, lid in enumerate(ids.tolist()):
        at = line_of_pair == n
        lines[lid] = (frame_of_pair[at], cur[at])
    return StreamColumns.assemble(bus, k_s[frame_at], v.view(complex), lines)


def _bus_from_name(path: Path) -> int:
    """The sensor bus N of a file named bus<N>.csv, else -1."""
    m = _STREAM_NAME.fullmatch(path.name)
    return int(m.group(1)) if m else -1


def write_streams(outdir: str | Path, streams: dict[int, StreamColumns],
                  scenario: Scenario, truth: GroundTruth) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for bus, stream in sorted(streams.items()):
        write_stream_csv(outdir / f"bus{bus}.csv", stream,
                         scenario.start_time, scenario.sample_rate)
    (outdir / "groundtruth.json").write_text(truth.to_json())
    (outdir / "scenario.json").write_text(scenario.to_json())
