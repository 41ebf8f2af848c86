"""Wire protocol and processes connecting local engines to the central node.

Framing is length-prefixed binary over TCP with a CRC32 trailer; complex
samples travel as IEEE-754 little-endian doubles so a frame round-trips
bit-exactly (the networked pipeline must reproduce the offline pipeline's
event log byte for byte). Layout details in docs/protocol.md.
"""
from __future__ import annotations

import heapq
import json
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytics import AnomalyReport, LocalEngine, PhasorFrame
from .central import CentralChangeTracker, EventLog, build_central_model, fuse_frames, fuse_reports
from .config import Config
from .model import FeederModel, Placement, build_system, partition
from .pipeline import line_ratings_at

VERSION = 1
MAX_BODY = 1 << 20

HELLO, FRAME, REPORT, HEARTBEAT, BYE = range(5)
_KIND_NAMES = {HELLO: "hello", FRAME: "frame", REPORT: "report",
               HEARTBEAT: "heartbeat", BYE: "bye"}


class ProtocolError(Exception):
    """Base for everything decode can raise."""


class TruncatedError(ProtocolError):
    pass


class VersionError(ProtocolError):
    pass


class ChecksumError(ProtocolError):
    pass


class MalformedError(ProtocolError):
    pass


@dataclass(frozen=True)
class Message:
    kind: int
    sensor: int
    k: int
    frame: PhasorFrame | None = None
    report: AnomalyReport | None = None
    info: dict | None = None
    version: int = VERSION

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise MalformedError(f"unknown kind {self.kind}")


@dataclass
class SessionState:
    sensor: int
    last_k: int = -1
    gaps: int = 0
    duplicates: int = 0
    frames: int = 0
    connected: bool = True
    done: bool = False  # the last session ended with Bye

    def observe(self, k: int) -> bool:
        """Track frame arrival order; False for duplicate k."""
        if k <= self.last_k:
            self.duplicates += 1
            return False
        if self.last_k >= 0 and k > self.last_k + 1:
            self.gaps += k - self.last_k - 1
        self.last_k = k
        self.frames += 1
        return True


class FrameAligner:
    """Orders per-sensor frames into per-k sets on a logical watermark.

    Sample k is released once every expected sensor has contributed to it,
    or once no sensor can still deliver it: each has either delivered a
    later k' > k or ended its session. A sensor that has not sent anything
    yet holds every k back. Sensors missing from a released set count as a
    gap downstream, exactly as the offline pipeline's grouping by k counts
    them, so both paths see the same (k, frames) sequence whatever the
    machine timing. No release reads a clock. Releases are strictly
    ascending in k; a frame for an already released k is dropped and
    counted in `late`.
    """

    def __init__(self, sensors):
        self.sensors = frozenset(sensors)
        self.pending: dict[int, dict[int, PhasorFrame]] = {}
        self._heap: list[int] = []          # pending k, smallest first
        self._high: dict[int, int] = {}     # sensor -> highest k delivered
        self._ended: set[int] = set()
        self._next_k = 0                    # every k below is released
        self.stale_releases = 0             # sets released with a sensor missing
        self.late = 0                       # frames for an already released k

    def push(self, sensor: int, frame: PhasorFrame) -> list[tuple[int, dict]]:
        if sensor not in self.sensors:
            raise ValueError(f"sensor {sensor} is not expected")
        self._ended.discard(sensor)
        if frame.k < self._next_k:
            self.late += 1
            return []
        self._high[sensor] = max(frame.k, self._high.get(sensor, -1))
        frames = self.pending.get(frame.k)
        if frames is None:
            frames = self.pending[frame.k] = {}
            heapq.heappush(self._heap, frame.k)
        frames.setdefault(sensor, frame)
        return self._release()

    def end(self, sensor: int) -> list[tuple[int, dict]]:
        """The sensor's session is over: it no longer holds any k back."""
        self._ended.add(sensor)
        return self._release()

    def _blocked(self, k: int) -> bool:
        if len(self.pending[k]) == len(self.sensors):
            return False
        for s in self.sensors:
            if self._high.get(s, -1) <= k and s not in self._ended:
                return True
        return False

    def _pop(self) -> tuple[int, dict]:
        k = heapq.heappop(self._heap)
        frames = self.pending.pop(k)
        if len(frames) < len(self.sensors):
            self.stale_releases += 1
        self._next_k = k + 1
        return k, frames

    def _release(self) -> list[tuple[int, dict]]:
        out = []
        while self._heap and not self._blocked(self._heap[0]):
            out.append(self._pop())
        return out

    def flush(self) -> list[tuple[int, dict]]:
        """Release everything still pending, e.g. when a run times out."""
        out = []
        while self._heap:
            out.append(self._pop())
        return out


def _pack_c3(vec: np.ndarray) -> bytes:
    return struct.pack("<6d", *(x for c in vec for x in (c.real, c.imag)))


def _unpack_c3(buf: bytes, off: int) -> tuple[np.ndarray, int]:
    if off + 48 > len(buf):
        raise TruncatedError("complex triple runs past end")
    vals = struct.unpack_from("<6d", buf, off)
    return np.array([complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                     complex(vals[4], vals[5])]), off + 48


def _frame_payload(f: PhasorFrame) -> bytes:
    if len(f.i_lines) > 255:
        raise MalformedError("too many lines in frame")
    out = [struct.pack("<B", len(f.i_lines)), _pack_c3(f.v)]
    for lid in sorted(f.i_lines):
        raw = lid.encode()
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(_pack_c3(f.i_lines[lid]))
    return b"".join(out)


def _parse_frame_payload(buf: bytes, sensor: int, k: int) -> PhasorFrame:
    if len(buf) < 49:
        raise TruncatedError("frame payload too short")
    n = buf[0]
    v, off = _unpack_c3(buf, 1)
    i_lines = {}
    for _ in range(n):
        if off + 2 > len(buf):
            raise TruncatedError("line id length runs past end")
        (ln,) = struct.unpack_from("<H", buf, off)
        off += 2
        if off + ln > len(buf):
            raise TruncatedError("line id runs past end")
        try:
            lid = buf[off:off + ln].decode()
        except UnicodeDecodeError as e:
            raise MalformedError(f"line id not UTF-8: {e}")
        off += ln
        i, off = _unpack_c3(buf, off)
        i_lines[lid] = i
    if off != len(buf):
        raise MalformedError("trailing bytes in frame payload")
    return PhasorFrame(k=k, bus=sensor, v=v, i_lines=i_lines)


def _json_payload(obj: dict) -> bytes:
    raw = json.dumps(obj, sort_keys=True).encode()
    return struct.pack("<I", len(raw)) + raw


def _parse_json_payload(buf: bytes) -> dict:
    if len(buf) < 4:
        raise TruncatedError("json length missing")
    (ln,) = struct.unpack_from("<I", buf, 0)
    if ln > MAX_BODY or 4 + ln != len(buf):
        raise MalformedError("json length mismatch")
    try:
        obj = json.loads(buf[4:4 + ln].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MalformedError(f"bad json payload: {e}")
    if not isinstance(obj, dict):
        raise MalformedError("json payload not an object")
    return obj


def encode(m: Message) -> bytes:
    """Serialize one message; decode(encode(m)) == m bit-exactly."""
    if m.kind == FRAME:
        if m.frame is None:
            raise MalformedError("frame message without frame")
        payload = _frame_payload(m.frame)
    elif m.kind == REPORT:
        if m.report is None:
            raise MalformedError("report message without report")
        payload = _json_payload(m.report.to_dict())
    elif m.kind in (HELLO, BYE):
        payload = _json_payload(m.info or {})
    else:
        payload = b""
    body = struct.pack("<BBIQ", m.version, m.kind, m.sensor, m.k) + payload
    return struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))


def decode(buf: bytes, offset: int = 0) -> tuple[Message, int]:
    """Parse one message starting at offset; returns (message, next offset).

    Every failure raises a ProtocolError subtype; no other exception
    escapes for arbitrary input bytes.
    """
    if len(buf) - offset < 4:
        raise TruncatedError("length prefix missing")
    (body_len,) = struct.unpack_from("<I", buf, offset)
    if body_len < 14:
        raise MalformedError(f"body too short ({body_len})")
    if body_len > MAX_BODY:
        raise MalformedError(f"body too large ({body_len})")
    start = offset + 4
    end = start + body_len
    if end + 4 > len(buf):
        raise TruncatedError("body or checksum missing")
    body = buf[start:end]
    (crc,) = struct.unpack_from("<I", buf, end)
    if crc != zlib.crc32(body):
        raise ChecksumError("crc mismatch")
    version, kind, sensor, k = struct.unpack_from("<BBIQ", body, 0)
    if version != VERSION:
        raise VersionError(f"version {version} != {VERSION}")
    if kind not in _KIND_NAMES:
        raise MalformedError(f"unknown kind {kind}")
    payload = body[14:]
    frame = report = info = None
    if kind == FRAME:
        frame = _parse_frame_payload(payload, sensor, k)
    elif kind == REPORT:
        d = _parse_json_payload(payload)
        try:
            report = AnomalyReport.from_dict(d)
        except (KeyError, TypeError, ValueError) as e:
            raise MalformedError(f"bad report: {e}")
    elif kind in (HELLO, BYE):
        info = _parse_json_payload(payload)
    elif payload:
        raise MalformedError("unexpected payload")
    return Message(kind=kind, sensor=sensor, k=k, frame=frame,
                   report=report, info=info), end + 4


class MessageStream:
    """Incremental reader over a socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = b""

    def read(self) -> Message | None:
        """Next message, or None on clean EOF."""
        while True:
            try:
                msg, consumed = decode(self._buf)
            except TruncatedError:
                chunk = self._sock.recv(65536)
                if not chunk:
                    if self._buf:
                        raise
                    return None
                self._buf += chunk
                continue
            self._buf = self._buf[consumed:]
            return msg


def pace(frames, rate_multiplier: float = 0.0, sample_rate: float = 120.0):
    """Yield recorded frames at rate_multiplier x real time; 0 means unpaced."""
    period = (1.0 / (sample_rate * rate_multiplier)) if rate_multiplier > 0 else 0.0
    for f in frames:
        if period:
            time.sleep(period)
        yield f


@dataclass
class LocalStats:
    reports_sent: int = 0
    frames_sent: int = 0
    reconnects: int = 0
    spooled: int = 0


def serve_local(frames, sensor: int, central_addr: tuple[str, int],
                feeder: FeederModel, cfg: Config | None = None,
                spool_path: str | Path | None = None,
                reconnect_interval: float = 0.05,
                max_retry_s: float = 30.0) -> LocalStats:
    """Run a local engine over a frame source, shipping results upstream.

    Reports outrank frames: whenever both are queued, every pending report
    is sent first. On a broken connection everything queues to an on-disk
    spool and is replayed after reconnecting, so no report is lost.
    """
    cfg = cfg or Config()
    eng = LocalEngine(sensor, line_ratings_at(feeder, sensor), cfg)
    stats = LocalStats()
    spool = Path(spool_path) if spool_path else None
    report_q: list[bytes] = []
    frame_q: list[bytes] = []
    sock: socket.socket | None = None

    def connect() -> socket.socket | None:
        try:
            s = socket.create_connection(central_addr, timeout=5.0)
            s.sendall(encode(Message(kind=HELLO, sensor=sensor, k=0,
                                     info={"sensor": sensor})))
            return s
        except OSError:
            return None

    def spool_out():
        nonlocal sock
        if spool is None:
            return
        with open(spool, "ab") as fh:
            for b in report_q:
                fh.write(b)
                stats.spooled += 1
            for b in frame_q:
                fh.write(b)
                stats.spooled += 1
        report_q.clear()
        frame_q.clear()

    def drain() -> bool:
        """Send all queued bytes, reports first; False if the link died."""
        nonlocal sock
        if sock is None:
            return False
        try:
            while report_q:
                sock.sendall(report_q[0])
                report_q.pop(0)
                stats.reports_sent += 1
            while frame_q:
                sock.sendall(frame_q[0])
                frame_q.pop(0)
                stats.frames_sent += 1
            return True
        except OSError:
            try:
                sock.close()
            finally:
                sock = None
            return False

    def replay_spool() -> bool:
        nonlocal sock
        if spool is None or not spool.exists() or sock is None:
            return True
        data = spool.read_bytes()
        try:
            sock.sendall(data)
        except OSError:
            try:
                sock.close()
            finally:
                sock = None
            return False
        spool.unlink()
        return True

    def ensure_link():
        nonlocal sock
        deadline = time.monotonic() + max_retry_s
        while sock is None:
            sock = connect()
            if sock is not None:
                stats.reconnects += 1
                if not replay_spool():
                    continue
                return
            if time.monotonic() > deadline:
                raise ConnectionError(f"central at {central_addr} unreachable")
            time.sleep(reconnect_interval)

    ensure_link()
    stats.reconnects -= 1  # first connect is not a reconnect
    for f in frames:
        for rep in eng.step(f):
            report_q.append(encode(Message(kind=REPORT, sensor=sensor, k=rep.start_k,
                                           report=rep)))
        frame_q.append(encode(Message(kind=FRAME, sensor=sensor, k=f.k, frame=f)))
        while not drain():
            spool_out()
            ensure_link()
    for rep in eng.finish():
        report_q.append(encode(Message(kind=REPORT, sensor=sensor, k=rep.start_k,
                                       report=rep)))
    report_q.append(encode(Message(kind=BYE, sensor=sensor, k=0, info={})))
    while not drain():
        spool_out()
        ensure_link()
    if sock is not None:
        sock.close()
    return stats


@dataclass
class CentralResult:
    event_log: EventLog
    xs: list[tuple[int, float]]
    sessions: dict[int, SessionState] = field(default_factory=dict)
    rejected: int = 0
    stale_releases: int = 0   # samples fused with a sensor missing
    late: int = 0             # frames for an already fused sample, dropped
    gaps: int = 0             # incomplete samples the tracker skipped
    skipped: int = 0          # samples with a zero measurement vector


def serve_central(listen_addr: tuple[str, int], feeder: FeederModel,
                  placement: Placement, cfg: Config | None = None,
                  ready: threading.Event | None = None,
                  timeout_s: float = 60.0) -> CentralResult:
    """Accept one session per sensor, fuse frames by k, run the central rule.

    Returns once every expected sensor has said Bye (or the timeout hits);
    a sensor whose session ends by EOF, a reset or a protocol error is
    still expected back. Unknown sensors are rejected; duplicate k keeps
    the first frame. A session that ends in any of these ways stops
    holding samples back; samples still pending at the timeout are
    released as they are.
    """
    cfg = cfg or Config()
    expected = set(placement.sensor_buses)
    model = build_central_model(partition(build_system(feeder), placement))
    tracker = CentralChangeTracker(model, cfg)
    aligner = FrameAligner(expected)
    sessions: dict[int, SessionState] = {}
    reports: list[tuple[str, AnomalyReport]] = []
    records = []
    lock = threading.Lock()   # sequencer: owns aligner, tracker, reports
    done = threading.Event()
    rejected = [0]

    def step(released):
        for k, frames in released:
            records.extend(tracker.step(fuse_frames(model, frames, k)))

    def handle(conn: socket.socket):
        stream = MessageStream(conn)
        sensor = None
        bye = False
        try:
            hello = stream.read()
            if hello is None or hello.kind != HELLO or hello.sensor not in expected:
                rejected[0] += 1
                return
            with lock:
                if hello.sensor in sessions and sessions[hello.sensor].connected:
                    rejected[0] += 1
                    return
                sensor = hello.sensor
                state = sessions.setdefault(sensor, SessionState(sensor=sensor))
                state.connected = True
                state.done = False
            while True:
                msg = stream.read()
                if msg is None:
                    break
                if msg.kind == FRAME:
                    with lock:
                        if sessions[sensor].observe(msg.k):
                            step(aligner.push(sensor, msg.frame))
                elif msg.kind == REPORT:
                    with lock:
                        reports.append((str(sensor), msg.report))
                elif msg.kind == BYE:
                    bye = True
                    break
        except (ProtocolError, OSError):
            pass  # the session is over either way
        finally:
            with lock:
                if sensor is not None:
                    sessions[sensor].connected = False
                    sessions[sensor].done = bye
                    step(aligner.end(sensor))
                if set(sessions) == expected and all(s.done for s in sessions.values()):
                    done.set()
            conn.close()

    server = socket.create_server(listen_addr)
    server.settimeout(0.2)

    def acceptor():
        while not done.is_set():
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=handle, args=(conn,), daemon=True).start()

    t = threading.Thread(target=acceptor, daemon=True)
    t.start()
    if ready is not None:
        ready.set()
    done.wait(timeout=timeout_s)
    server.close()
    t.join(timeout=2.0)

    with lock:
        step(aligner.flush())
        records.extend(tracker.finish())
    reports.sort(key=lambda p: (p[0], p[1].rule, p[1].bus, p[1].line or "",
                                p[1].start_k, p[1].end_k if p[1].end_k is not None else -1))
    log = fuse_reports(reports, records)
    return CentralResult(event_log=log, xs=tracker.xs, sessions=sessions,
                         rejected=rejected[0], stale_releases=aligner.stale_releases,
                         late=aligner.late, gaps=tracker.gaps, skipped=tracker.skipped)
