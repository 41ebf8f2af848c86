import json
import socket
import time
from pathlib import Path

import numpy as np
import pytest

from gridwatch.model import (Bus, FeederModel, LineSegment, PhaseMask,
                             build_system, load_feeder)

DATA = Path(__file__).resolve().parents[1] / "src" / "gridwatch" / "data"


@pytest.fixture(scope="session")
def ieee34():
    return load_feeder(DATA / "ieee34.feeder")


@pytest.fixture(scope="session")
def ieee34_system(ieee34):
    return build_system(ieee34)


@pytest.fixture(scope="session")
def ieee123():
    return load_feeder(DATA / "ieee123.feeder")


def scenario_path(name: str) -> Path:
    return DATA / "scenarios" / f"{name}.json"


def make_line(f, t, series, shunt=None, phases="abc", rating=None):
    series = np.asarray(series, dtype=complex)
    shunt = np.zeros((3, 3), dtype=complex) if shunt is None else np.asarray(shunt, dtype=complex)
    mask = PhaseMask.from_string(phases)
    if rating is None:
        rating = np.zeros(3)
        rating[list(mask.indices)] = 10.0
    return LineSegment(f, t, series, shunt, np.asarray(rating, dtype=float), mask)


def toy_feeder(n_bus=2, y=1.0 + 0.0j, shunt=0.0 + 0.0j, name="toy"):
    """Chain feeder with identical per-phase diagonal admittance blocks."""
    buses = tuple(Bus(id=i, kv_base=12.47) for i in range(1, n_bus + 1))
    lines = tuple(make_line(i, i + 1, np.eye(3) * y, np.eye(3) * shunt)
                  for i in range(1, n_bus))
    return FeederModel(name=name, base_mva=1.0, buses=buses, lines=lines, slack_bus=1)


def random_radial_feeder(rng, n_bus=8, p_lateral=0.3):
    """Random tree with mixed phase masks and symmetric random admittances."""
    buses = tuple(Bus(id=i, kv_base=12.47) for i in range(1, n_bus + 1))
    lines = []
    for i in range(2, n_bus + 1):
        parent = int(rng.integers(1, i))
        if rng.random() < p_lateral and i > 2:
            phases = rng.choice(["a", "b", "c", "ab", "bc", "ac"])
        else:
            phases = "abc"
        mask = PhaseMask.from_string(phases)
        m = np.zeros((3, 3), dtype=complex)
        idx = list(mask.indices)
        blk = rng.normal(size=(len(idx), len(idx))) + 1j * rng.normal(size=(len(idx), len(idx)))
        blk = (blk + blk.T) / 2 + np.eye(len(idx)) * (2.0 - 0.5j)
        m[np.ix_(idx, idx)] = blk
        sh = np.zeros((3, 3), dtype=complex)
        sh[np.ix_(idx, idx)] = np.eye(len(idx)) * (0.01j * rng.random())
        lines.append(make_line(parent, i, m, sh, phases))
    return FeederModel(name="rand", base_mva=1.0, buses=buses,
                       lines=tuple(lines), slack_bus=1)


def write_feeder_json(path: Path, buses, lines, slack=1, base_mva=1.0):
    def pack(m):
        return [[float(v.real), float(v.imag)] for v in np.asarray(m, dtype=complex).reshape(-1)]
    doc = {
        "name": path.stem, "base_mva": base_mva, "slack": slack,
        "buses": [{"id": b, "kv_base": 12.47} for b in buses],
        "lines": [{"from": f, "to": t, "phases": ph, "series": pack(ser),
                   "shunt": pack(sh), "rating_amps": 100.0}
                  for f, t, ph, ser, sh in lines],
    }
    path.write_text(json.dumps(doc))
    return path


def connect_when_listening(port, wait_s=10.0):
    """A connection to the local port, retried until something listens there."""
    deadline = time.monotonic() + wait_s
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port))
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def raw_sensor_session(port, sensor, frames, bye, wait_s=10.0):
    """One sensor session by hand: Hello, the frames, then Bye or a bare
    close. The connect is retried until the central listens."""
    from gridwatch.transport import BYE, FRAME, HELLO, Message, encode

    with connect_when_listening(port, wait_s) as conn:
        conn.sendall(encode(Message(kind=HELLO, sensor=sensor, k=0, info={"sensor": sensor})))
        for f in frames:
            conn.sendall(encode(Message(kind=FRAME, sensor=sensor, k=f.k, frame=f)))
        if bye:
            conn.sendall(encode(Message(kind=BYE, sensor=sensor, k=0, info={})))


def fuse_streams(model, streams):
    """Recorded streams grouped by k and fused into one block."""
    from gridwatch.analytics import StreamColumns
    from gridwatch.central import fuse_frames, group_frames

    columns = {b: StreamColumns.from_frames(frames) for b, frames in streams.items()}
    released = group_frames(model.sensor_buses, {b: (c.ks, c.vi) for b, c in columns.items()},
                            block=1 << 30)
    return fuse_frames(model, [r for rs in released for r in rs])
