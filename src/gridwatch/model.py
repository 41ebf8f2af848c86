"""Three-phase feeder model, bus admittance assembly and sensor partition.

The grid is a radial collection of pi-model line segments with 3x3 complex
series/shunt admittance blocks. Phases that a segment does not carry are
represented as structural zeros, so every block stays 3x3 and indexing is
uniform. Steady state is encoded by the constraint matrix H = [I | -Y]
acting on the stacked measurement vector d = (I_inj, V): H d = 0.

Column convention (frozen for file interchange): current-injection block
first, then voltage block; inside each block bus-major in ascending bus id,
phase-major a, b, c.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PHASES = "abc"


class FeederError(ValueError):
    """Malformed feeder file or violated model invariant."""


@dataclass(frozen=True)
class PhaseMask:
    present: tuple[bool, bool, bool]

    def __post_init__(self):
        if not any(self.present):
            raise FeederError("phase mask with no phases present")

    @classmethod
    def from_string(cls, s: str) -> "PhaseMask":
        s = s.lower()
        bad = set(s) - set(PHASES)
        if bad or not s:
            raise FeederError(f"bad phase string {s!r}")
        return cls(tuple(p in s for p in PHASES))

    def __str__(self) -> str:
        return "".join(p for p, on in zip(PHASES, self.present) if on)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, on in enumerate(self.present) if on)

    @property
    def is_three_phase(self) -> bool:
        return all(self.present)


@dataclass(frozen=True)
class LineSegment:
    from_bus: int
    to_bus: int
    series_admittance: np.ndarray  # 3x3 complex, p.u.
    shunt_admittance: np.ndarray   # 3x3 complex, p.u., total line shunt
    rated_current: np.ndarray      # per-phase real, p.u.
    phases: PhaseMask

    @property
    def id(self) -> str:
        return f"{self.from_bus}-{self.to_bus}"

    def validate(self) -> None:
        absent = [i for i in range(3) if not self.phases.present[i]]
        for m in (self.series_admittance, self.shunt_admittance):
            if m.shape != (3, 3):
                raise FeederError(f"line {self.id}: admittance block not 3x3")
            if not np.all(np.isfinite(m)):
                raise FeederError(f"line {self.id}: non-finite admittance")
            for i in absent:
                if np.any(m[i, :] != 0) or np.any(m[:, i] != 0):
                    raise FeederError(
                        f"line {self.id}: nonzero admittance on absent phase {PHASES[i]}")
        if not np.allclose(self.series_admittance, self.series_admittance.T,
                           rtol=0, atol=1e-12 * max(1.0, float(np.abs(self.series_admittance).max()))):
            raise FeederError(f"line {self.id}: series admittance not symmetric")
        for i in self.phases.indices:
            if not self.rated_current[i] > 0:
                raise FeederError(f"line {self.id}: rated current not positive on phase {PHASES[i]}")


@dataclass(frozen=True)
class Bus:
    id: int
    kv_base: float
    kind: str = "pq"


@dataclass(frozen=True)
class FeederModel:
    name: str
    base_mva: float
    buses: tuple[Bus, ...]            # ascending id; index = matrix position
    lines: tuple[LineSegment, ...]
    slack_bus: int
    # reduce_laterals provenance: attachment bus -> removed lateral bus ids
    lateral_provenance: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def bus_count(self) -> int:
        return len(self.buses)

    @property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    def index_of(self, bus_id: int) -> int:
        i = self._index.get(bus_id)
        if i is None:
            raise FeederError(f"unknown bus {bus_id}")
        return i

    def __post_init__(self):
        object.__setattr__(self, "_index", {b.id: i for i, b in enumerate(self.buses)})

    def lines_at(self, bus_id: int) -> tuple[LineSegment, ...]:
        return tuple(l for l in self.lines if bus_id in (l.from_bus, l.to_bus))

    def line(self, line_id: str) -> LineSegment:
        for l in self.lines:
            if l.id == line_id:
                return l
        raise FeederError(f"unknown line {line_id}")

    def bus_phases(self, bus_id: int) -> PhaseMask:
        """Phases present at a bus: union over incident segments (slack: all)."""
        if bus_id == self.slack_bus:
            return PhaseMask((True, True, True))
        on = [False, False, False]
        for l in self.lines_at(bus_id):
            for i in l.phases.indices:
                on[i] = True
        return PhaseMask(tuple(on))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _matrix_from_pairs(pairs, where: str) -> np.ndarray:
    if len(pairs) != 9:
        raise FeederError(f"{where}: expected 9 [re,im] entries, got {len(pairs)}")
    try:
        vals = [complex(float(re), float(im)) for re, im in pairs]
    except (TypeError, ValueError) as e:
        raise FeederError(f"{where}: bad complex entry ({e})")
    return np.array(vals, dtype=complex).reshape(3, 3)


def load_feeder(path: str | Path) -> FeederModel:
    """Load and validate a feeder file.

    File admittances are already per-unit on the declared bases; current
    ratings are in amps and convert to per-unit at load, so everything
    downstream is base-free.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise FeederError(f"{path}: not valid JSON ({e})")

    try:
        base_mva = float(raw["base_mva"])
        slack = int(raw["slack"])
        bus_rows = raw["buses"]
        line_rows = raw["lines"]
    except (KeyError, TypeError, ValueError) as e:
        raise FeederError(f"{path}: missing or malformed top-level field ({e})")

    buses = []
    seen = set()
    for row in bus_rows:
        b = Bus(id=int(row["id"]), kv_base=float(row["kv_base"]),
                kind=str(row.get("type", "pq")))
        if b.id in seen:
            raise FeederError(f"duplicate bus {b.id}")
        seen.add(b.id)
        buses.append(b)
    buses.sort(key=lambda b: b.id)
    if slack not in seen:
        raise FeederError(f"slack bus {slack} not in bus list")
    kv_of = {b.id: b.kv_base for b in buses}

    lines = []
    seen_pairs = set()
    for row in line_rows:
        f, t = int(row["from"]), int(row["to"])
        lid = f"{f}-{t}"
        if f not in kv_of or t not in kv_of:
            raise FeederError(f"line {lid} references unknown bus {f if f not in kv_of else t}")
        if frozenset((f, t)) in seen_pairs:
            raise FeederError(f"duplicate line {lid}")
        seen_pairs.add(frozenset((f, t)))
        mask = PhaseMask.from_string(row["phases"])
        i_base_amps = base_mva * 1e6 / (np.sqrt(3.0) * kv_of[f] * 1e3)
        series = _matrix_from_pairs(row["series"], f"line {lid} series")
        shunt = _matrix_from_pairs(row["shunt"], f"line {lid} shunt")
        rating_pu = float(row["rating_amps"]) / i_base_amps
        rating = np.zeros(3)
        rating[list(mask.indices)] = rating_pu
        seg = LineSegment(f, t, _freeze(series), _freeze(shunt), _freeze(rating), mask)
        seg.validate()
        lines.append(seg)

    model = FeederModel(name=str(raw.get("name", path.stem)), base_mva=base_mva,
                        buses=tuple(buses), lines=tuple(lines), slack_bus=slack)
    _check_connected(model)
    return model


def reachable(lines, starts) -> list[set[int]]:
    """For each bus of `starts` in turn, the buses that `lines` join it to;
    empty where an earlier start reached it already."""
    adj: dict[int, list[int]] = {}
    for l in lines:
        adj.setdefault(l.from_bus, []).append(l.to_bus)
        adj.setdefault(l.to_bus, []).append(l.from_bus)
    seen: set[int] = set()
    out = []
    for start in starts:
        found = set()
        stack = [start] if start not in seen else []
        seen.update(stack)
        while stack:
            cur = stack.pop()
            found.add(cur)
            for n in adj.get(cur, ()):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        out.append(found)
    return out


def _check_connected(model: FeederModel) -> None:
    (live,) = reachable(model.lines, [model.slack_bus])
    missing = sorted(set(model.bus_ids) - live)
    if missing:
        raise FeederError(f"feeder not connected: buses {missing} unreachable from slack")


def reduce_laterals(feeder: FeederModel) -> FeederModel:
    """Keep only all-three-phase segments; record removed subtrees.

    The returned model contains the buses still connected to the slack
    through three-phase lines. Every removed lateral subtree is recorded in
    lateral_provenance under its attachment bus, so load profiles defined on
    the full feeder can be rolled up onto the retained buses.
    """
    keep_lines = [l for l in feeder.lines if l.phases.is_three_phase]
    (kept,) = reachable(keep_lines, [feeder.slack_bus])

    # walk each removed subtree back to its attachment point on the kept core
    attach = sorted((l.from_bus, l.to_bus) if l.from_bus in kept else (l.to_bus, l.from_bus)
                    for l in feeder.lines if (l.from_bus in kept) != (l.to_bus in kept))
    lateral = [l for l in feeder.lines if l.from_bus not in kept and l.to_bus not in kept]
    provenance: dict[int, list[int]] = {}
    for (root, _), subtree in zip(attach, reachable(lateral, [n for _, n in attach])):
        if subtree:
            provenance.setdefault(root, []).extend(sorted(subtree))

    if len(kept) == feeder.bus_count:
        return feeder
    buses = tuple(b for b in feeder.buses if b.id in kept)
    lines = tuple(l for l in keep_lines if l.from_bus in kept and l.to_bus in kept)
    return FeederModel(name=feeder.name + "-reduced", base_mva=feeder.base_mva,
                       buses=buses, lines=lines, slack_bus=feeder.slack_bus,
                       lateral_provenance={k: tuple(v) for k, v in sorted(provenance.items())})


@dataclass(frozen=True)
class SystemMatrix:
    feeder: FeederModel
    Y: np.ndarray  # 3B x 3B complex
    H: np.ndarray  # 3B x 6B complex, [I | -Y]

    @property
    def bus_count(self) -> int:
        return self.feeder.bus_count


def build_system(feeder: FeederModel) -> SystemMatrix:
    """Assemble Y by standard pi-segment stamping and form H = [I | -Y]."""
    B = feeder.bus_count
    Y = np.zeros((3 * B, 3 * B), dtype=complex)
    for l in feeder.lines:
        i = feeder.index_of(l.from_bus)
        j = feeder.index_of(l.to_bus)
        ys = l.series_admittance
        ysh2 = l.shunt_admittance / 2.0
        Y[3*i:3*i+3, 3*i:3*i+3] += ys + ysh2
        Y[3*j:3*j+3, 3*j:3*j+3] += ys + ysh2
        Y[3*i:3*i+3, 3*j:3*j+3] -= ys
        Y[3*j:3*j+3, 3*i:3*i+3] -= ys
    H = np.hstack([np.eye(3 * B, dtype=complex), -Y])
    return SystemMatrix(feeder=feeder, Y=_freeze(Y), H=_freeze(H))


@dataclass(frozen=True)
class Placement:
    sensor_buses: tuple[int, ...]  # ascending, distinct

    def __post_init__(self):
        ordered = tuple(sorted(set(self.sensor_buses)))
        if len(ordered) != len(self.sensor_buses):
            raise FeederError("placement has duplicate buses")
        if not ordered:
            raise FeederError("placement needs at least one sensor")
        object.__setattr__(self, "sensor_buses", ordered)

    @property
    def k(self) -> int:
        return len(self.sensor_buses)


@dataclass(frozen=True)
class PartitionedSystem:
    system: SystemMatrix
    placement: Placement
    H_a: np.ndarray           # 3B x 6K
    H_u: np.ndarray           # 3B x 6K'
    avail_columns: np.ndarray  # H column index per H_a column
    unavail_columns: np.ndarray

    def column_key(self, h_col: int) -> tuple[int, str, str]:
        """Decode an H column index to (bus id, 'current'|'voltage', phase)."""
        B = self.system.bus_count
        qty = "current" if h_col < 3 * B else "voltage"
        r = h_col % (3 * B)
        return (self.system.feeder.buses[r // 3].id, qty, PHASES[r % 3])

    def reassemble(self) -> np.ndarray:
        H = np.empty_like(self.system.H)
        H[:, self.avail_columns] = self.H_a
        H[:, self.unavail_columns] = self.H_u
        return H


def entry_columns(system: SystemMatrix, bus_ids) -> np.ndarray:
    """Current then voltage H columns for the given buses, bus-major."""
    B = system.bus_count
    idx = [system.feeder.index_of(b) for b in bus_ids]
    cur = [3 * i + p for i in idx for p in range(3)]
    vol = [3 * B + c for c in cur]
    return np.array(cur + vol, dtype=int)


def partition(system: SystemMatrix, placement: Placement) -> PartitionedSystem:
    """Split H columns into available (sensed) and unavailable sets.

    A sensor at bus m makes available the three voltage phases and the three
    net-injection current phases of m.
    """
    ids = set(system.feeder.bus_ids)
    for b in placement.sensor_buses:
        if b not in ids:
            raise FeederError(f"placement bus {b} not in feeder")
    others = tuple(b for b in system.feeder.bus_ids if b not in set(placement.sensor_buses))
    avail = entry_columns(system, placement.sensor_buses)
    unavail = (entry_columns(system, others) if others
               else np.empty(0, dtype=int))
    return PartitionedSystem(system=system, placement=placement,
                             H_a=_freeze(system.H[:, avail].copy()),
                             H_u=_freeze(system.H[:, unavail].copy()),
                             avail_columns=_freeze(avail),
                             unavail_columns=_freeze(unavail))
