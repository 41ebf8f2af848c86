"""Wire protocol and processes connecting local engines to the central node.

Framing is length-prefixed binary over TCP with a CRC32 trailer; complex
samples travel as IEEE-754 little-endian doubles so a frame round-trips
bit-exactly (the networked pipeline must reproduce the offline pipeline's
event log byte for byte). Layout details in docs/protocol.md.
"""
from __future__ import annotations

import json
import selectors
import socket
import struct
import threading
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytics import AnomalyReport, LocalEngine, PhasorFrame
from .central import (CentralChangeTracker, EventLog, FrameAligner, Released,
                      build_central_model, fuse_frames, fuse_reports)
from .config import Config
from .model import FeederModel, Placement, build_system, partition
from .pipeline import line_ratings_at

VERSION = 1
MAX_BODY = 1 << 20
_RECONNECT_INTERVAL_S = 0.05  # serve_local's pause between connection attempts

HELLO, FRAME, REPORT, HEARTBEAT, BYE = range(5)
_KIND_NAMES = {HELLO: "hello", FRAME: "frame", REPORT: "report",
               HEARTBEAT: "heartbeat", BYE: "bye"}


class ProtocolError(Exception):
    """Base for everything decode can raise."""


class TruncatedError(ProtocolError):
    """The input ends before the message does; more bytes may complete it."""


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


@dataclass(frozen=True)
class FrameRun:
    """Consecutive frame messages of one layout, as columns: `ks` (uint64)
    and `vi` (complex (m, 2, 3)), each frame's voltage and then its line
    currents summed in wire order onto +0."""
    sensor: int
    ks: np.ndarray
    vi: np.ndarray
    kind = FRAME


@dataclass
class SessionState:
    sensor: int
    last_k: int = -1
    gaps: int = 0
    duplicates: int = 0
    frames: int = 0
    connected: bool = True
    done: bool = False  # the last session ended with Bye

    def observe(self, ks: np.ndarray) -> np.ndarray:
        """Track the arrival order of a run of frames, at least one; True
        where k is new.

        A k is new where it exceeds `last_k` and every earlier k of the run;
        the others are duplicates. The counters move as if the frames came
        one at a time: a new k that skips samples adds them to `gaps`.
        """
        ok = np.empty(len(ks), dtype=bool)
        ok[0] = True
        ok[1:] = ks[1:] > np.maximum.accumulate(ks)[:-1]
        if self.last_k >= 0:
            ok &= ks > self.last_k
        new = ks[ok]
        if len(new):
            first, last = int(new[0]), int(new[-1])
            self.gaps += last - first - (len(new) - 1)
            if self.last_k >= 0:
                self.gaps += first - self.last_k - 1
            self.last_k = last
        self.frames += len(new)
        self.duplicates += len(ks) - len(new)
        return ok


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_HEAD = struct.Struct("<BBIQ")   # version, kind, sensor, k
_HEAD_LEN = _HEAD.size
# offsets in a whole frame message, length prefix included
_AT_SENSOR, _AT_K, _AT_LINES = 4 + 2, 4 + 6, 4 + _HEAD_LEN


def _pack_c3(vec: np.ndarray) -> bytes:
    return struct.pack("<6d", *(x for c in vec for x in (c.real, c.imag)))


def _c3(body: bytes, off: int) -> np.ndarray:
    """Read-only view of the complex triple at off: the same bits _pack_c3 wrote."""
    if off + 48 > len(body):
        raise MalformedError("complex triple runs past end")
    return np.frombuffer(body, "<c16", 3, off)


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


def _parse_frame_payload(body: bytes, off: int, sensor: int, k: int) -> PhasorFrame:
    end = len(body)
    if end - off < 49:
        raise MalformedError("frame payload too short")
    n = body[off]
    v = _c3(body, off + 1)
    off += 49
    i_lines = {}
    for _ in range(n):
        if off + 2 > end:
            raise MalformedError("line id length runs past end")
        (ln,) = _U16.unpack_from(body, off)
        off += 2
        if off + ln > end:
            raise MalformedError("line id runs past end")
        try:
            lid = body[off:off + ln].decode()
        except UnicodeDecodeError as e:
            raise MalformedError(f"line id not UTF-8: {e}")
        off += ln
        i_lines[lid] = _c3(body, off)
        off += 48
    if off != end:
        raise MalformedError("trailing bytes in frame payload")
    return PhasorFrame(k=k, bus=sensor, v=v, i_lines=i_lines)


class _FrameLayout:
    """The bytes every frame message of one layout shares, taken from one
    that decoded: the length prefix, version, kind, sensor, line count, and
    each line's id length and id. Only k, the phasors and the CRC vary."""

    def __init__(self, msg: bytes):
        self.size = len(msg)
        self.head = msg[:_AT_K]
        self.sensor = _U32.unpack_from(msg, _AT_SENSOR)[0]
        fixed = [*range(_AT_K), _AT_LINES]
        self.currents = []          # offset of each line's currents
        off = _AT_LINES + 49
        for _ in range(msg[_AT_LINES]):
            (ln,) = _U16.unpack_from(msg, off)
            fixed += range(off, off + 2 + ln)
            off += 2 + ln
            self.currents.append(off)
            off += 48
        self.fixed = np.array(fixed, dtype=np.intp)
        self.want = np.frombuffer(msg, np.uint8)[self.fixed]

    def run(self, raw: bytes, off: int) -> FrameRun | None:
        """The frames of this layout with a good CRC from raw[off:] on, up to
        the first message that is not one; None if there is none."""
        size = self.size
        m = (len(raw) - off) // size
        if m == 0 or not raw.startswith(self.head, off):
            return None
        ok = (np.ndarray((m, size), np.uint8, raw, off)[:, self.fixed] == self.want).all(axis=1)
        if not ok.all():
            m = int(ok.argmin())
        body = memoryview(raw)
        crc = [zlib.crc32(body[a:a + size - 8]) for a in range(off + 4, off + m * size, size)]
        want = np.ndarray((m,), "<u4", raw, off + size - 4, (size,)).tolist()
        if crc != want:
            m = next(i for i, (c, w) in enumerate(zip(crc, want)) if c != w)
        if m == 0:
            return None
        ks = np.ndarray((m,), "<u8", raw, off + _AT_K, (size,)).astype(np.uint64)
        vi = np.zeros((m, 2, 3), dtype=complex)
        vi[:, 0] = np.ndarray((m, 3), "<c16", raw, off + _AT_LINES + 1, (size, 16))
        # a non-finite sum makes the sample non-finite, and the central
        # engine skips and counts it
        with np.errstate(invalid="ignore", over="ignore"):
            for at in self.currents:
                vi[:, 1] += np.ndarray((m, 3), "<c16", raw, off + at, (size, 16))
        return FrameRun(sensor=self.sensor, ks=ks, vi=vi)


def _json_payload(obj: dict) -> bytes:
    raw = json.dumps(obj, sort_keys=True).encode()
    return struct.pack("<I", len(raw)) + raw


def _parse_json_payload(body: bytes, off: int) -> dict:
    if len(body) - off < 4:
        raise MalformedError("json length missing")
    (ln,) = _U32.unpack_from(body, off)
    off += 4
    if ln > MAX_BODY or off + ln != len(body):
        raise MalformedError("json length mismatch")
    try:
        obj = json.loads(body[off:].decode())
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
    body = _HEAD.pack(m.version, m.kind, m.sensor, m.k) + payload
    return struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))


def decode(buf: bytes | bytearray, offset: int = 0) -> tuple[Message, int]:
    """Parse one message starting at offset; returns (message, next offset).

    `buf` may be any bytes-like object; the message body is copied out of it
    once, and the decoded frame's arrays are read-only views of that copy.
    TruncatedError means `buf` ends before the message does. Every failure
    raises a ProtocolError subtype; no other exception escapes for arbitrary
    input bytes.
    """
    if len(buf) - offset < 4:
        raise TruncatedError("length prefix missing")
    (body_len,) = _U32.unpack_from(buf, offset)
    if body_len < _HEAD_LEN:
        raise MalformedError(f"body too short ({body_len})")
    if body_len > MAX_BODY:
        raise MalformedError(f"body too large ({body_len})")
    start = offset + 4
    end = start + body_len
    if end + 4 > len(buf):
        raise TruncatedError("body or checksum missing")
    body = bytes(buf[start:end])
    (crc,) = _U32.unpack_from(buf, end)
    if crc != zlib.crc32(body):
        raise ChecksumError("crc mismatch")
    version, kind, sensor, k = _HEAD.unpack_from(body, 0)
    if version != VERSION:
        raise VersionError(f"version {version} != {VERSION}")
    if kind not in _KIND_NAMES:
        raise MalformedError(f"unknown kind {kind}")
    frame = report = info = None
    if kind == FRAME:
        frame = _parse_frame_payload(body, _HEAD_LEN, sensor, k)
    elif kind == REPORT:
        d = _parse_json_payload(body, _HEAD_LEN)
        try:
            report = AnomalyReport.from_dict(d)
        except (KeyError, TypeError, ValueError) as e:
            raise MalformedError(f"bad report: {e}")
    elif kind in (HELLO, BYE):
        info = _parse_json_payload(body, _HEAD_LEN)
    elif body_len > _HEAD_LEN:
        raise MalformedError("unexpected payload")
    return Message(kind=kind, sensor=sensor, k=k, frame=frame,
                   report=report, info=info), end + 4


class MessageStream:
    """Incremental decoder over the bytes of one session.

    `feed` appends bytes as they arrive; `read` returns the next complete
    message, and `read_batch` the next message or run of frames. Consumed
    bytes are dropped once per fed chunk, not once per message.
    """

    def __init__(self):
        self._buf = bytearray()
        self._off = 0
        self._raw: bytes | None = None         # a copy of _buf for numpy to view
        self._layout: _FrameLayout | None = None

    def feed(self, chunk: bytes) -> None:
        del self._buf[:self._off]
        self._off = 0
        self._buf += chunk
        self._raw = None

    def read_batch(self) -> Message | FrameRun | None:
        """Like `read`, but consecutive frames of one layout come back as one
        FrameRun, read from one copy of their bytes.

        A frame whose layout is new, and every other message, goes through
        `read`; the layout of a frame that decodes is kept for the frames
        after it. A message that is not a whole frame of the kept layout with
        a good CRC ends the run, so `read` meets it next and raises what it
        always raises, after the same frames.
        """
        run = self._run()
        if run is not None:
            return run
        start = self._off
        msg = self.read()
        if msg is None or msg.kind != FRAME:
            return msg
        self._layout = _FrameLayout(bytes(self._buf[start:self._off]))
        self._off = start
        return self._run()

    def _run(self) -> FrameRun | None:
        if self._layout is None:
            return None
        if self._raw is None:
            # numpy must not view _buf itself: feed could not resize it then
            self._raw = bytes(self._buf)
        run = self._layout.run(self._raw, self._off)
        if run is not None:
            self._off += len(run.ks) * self._layout.size
        return run

    def read(self) -> Message | None:
        """Next complete message, or None when no complete message is buffered."""
        try:
            msg, self._off = decode(self._buf, self._off)
        except TruncatedError:
            return None
        return msg

    def end(self) -> None:
        """The peer closed the session: raise TruncatedError if that cut a message."""
        if self._off < len(self._buf):
            raise TruncatedError(f"session ended inside a message "
                                 f"({len(self._buf) - self._off} bytes)")


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
        """Send all queued bytes in one write, reports first; False if the
        link died, in which case everything stays queued."""
        nonlocal sock
        if sock is None:
            return False
        try:
            sock.sendall(b"".join(report_q + frame_q))
        except OSError:
            try:
                sock.close()
            finally:
                sock = None
            return False
        stats.reports_sent += len(report_q)
        stats.frames_sent += len(frame_q)
        report_q.clear()
        frame_q.clear()
        return True

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
            time.sleep(_RECONNECT_INTERVAL_S)

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
    xs: list[tuple[int, float]]   # (k, x) pairs, unless a sink took them
    sessions: dict[int, SessionState] = field(default_factory=dict)
    rejected: int = 0
    protocol_errors: int = 0  # sessions ended by a message that failed to decode
    stale_releases: int = 0   # samples fused with a sensor missing
    late: int = 0             # frames for an already fused sample, dropped
    gaps: int = 0             # incomplete samples the tracker skipped
    skipped: int = 0          # samples whose d_a is zero or not finite


@dataclass
class _Link:
    """One accepted connection: its decoder and, once admitted, its sensor."""
    stream: MessageStream = field(default_factory=MessageStream)
    sensor: int | None = None


def serve_central(listen_addr: tuple[str, int], feeder: FeederModel,
                  placement: Placement, cfg: Config | None = None,
                  ready: threading.Event | None = None,
                  timeout_s: float = 60.0,
                  sink: Callable[[list[int], list[float]], None] | None = None
                  ) -> CentralResult:
    """Accept one session per sensor, fuse frames by k, run the central rule.

    One thread does all the work. A selector watches the listening socket
    and every session; a readable session gets one recv, and every complete
    message in its buffer is handled before the next select, consecutive
    frames as one run of columns (`MessageStream.read_batch`). The samples
    that the watermark releases meanwhile are fused as one block before the
    next select. Returns as soon as every expected sensor's last session has
    ended with Bye, or at the timeout; a sensor whose session ends by EOF, a
    reset or a protocol error is still expected back. A message stamped with
    another sensor than the session's Hello is a protocol error. Unknown
    sensors, and a second live session of one sensor, are rejected;
    duplicate k keeps the first frame. A session that ends in any of these
    ways stops holding samples back; samples still pending at the timeout
    are released as they are.

    Each fused block's (k, x) pairs go to `sink`; without one they are
    collected in the result's `xs`.
    """
    cfg = cfg or Config()
    expected = set(placement.sensor_buses)
    model = build_central_model(partition(build_system(feeder), placement))
    xs: list[tuple[int, float]] = []
    tracker = CentralChangeTracker(model, cfg,
                                   sink=sink or (lambda ks, x: xs.extend(zip(ks, x))))
    aligner = FrameAligner(expected)
    released: list[Released] = []   # released by the current read, not fused yet
    sessions: dict[int, SessionState] = {}
    reports: list[tuple[str, AnomalyReport]] = []
    records = []
    rejected = protocol_errors = 0
    finished = False

    def fuse():
        if released:
            records.extend(tracker.step(fuse_frames(model, released)))
            released.clear()

    def admit(link: _Link, hello: Message | FrameRun) -> bool:
        """Bind the session to the Hello's sensor; False to reject it."""
        if hello.kind != HELLO or hello.sensor not in expected:
            return False
        state = sessions.get(hello.sensor)
        if state is not None and state.connected:
            return False
        if state is None:
            state = sessions[hello.sensor] = SessionState(sensor=hello.sensor)
        state.connected = True
        state.done = False
        link.sensor = hello.sensor
        return True

    def close(conn: socket.socket, link: _Link, bye: bool = False) -> None:
        nonlocal finished
        sel.unregister(conn)
        conn.close()
        if link.sensor is not None:
            state = sessions[link.sensor]
            state.connected = False
            state.done = bye
            released.extend(aligner.end(link.sensor))
            finished = (len(sessions) == len(expected)
                        and all(s.done for s in sessions.values()))

    def accept() -> None:
        try:
            conn, _ = server.accept()
        except BlockingIOError:
            return                    # nothing pending: the peer gave up first
        except OSError:
            sel.unregister(server)    # the listener broke: serve the sessions we have
            return
        sel.register(conn, selectors.EVENT_READ, _Link())

    def push(sensor: int, runs: list[FrameRun]) -> None:
        """One read's frames of one session: one arrival check, one push."""
        ks = np.concatenate([r.ks for r in runs])
        vi = np.concatenate([r.vi for r in runs])
        new = sessions[sensor].observe(ks)
        if not new.all():
            ks, vi = ks[new], vi[new]
        if len(ks):
            released.extend(aligner.push(sensor, ks, vi))

    def receive(conn: socket.socket, link: _Link) -> None:
        nonlocal rejected, protocol_errors
        try:
            chunk = conn.recv(65536)
        except OSError:
            close(conn, link)
            return
        stream = link.stream
        runs: list[FrameRun] = []
        ended = bye = False
        try:
            if not chunk:
                stream.end()
                if link.sensor is None:
                    rejected += 1
                close(conn, link)
                return
            stream.feed(chunk)
            while (msg := stream.read_batch()) is not None:
                if link.sensor is None:
                    if not admit(link, msg):
                        rejected += 1
                        close(conn, link)
                        return
                elif msg.sensor != link.sensor:
                    raise ProtocolError(f"sensor {msg.sensor} in the session of {link.sensor}")
                elif msg.kind == FRAME:
                    runs.append(msg)
                elif msg.kind == REPORT:
                    reports.append((str(link.sensor), msg.report))
                elif msg.kind == BYE:
                    ended = bye = True
                    break
        except ProtocolError:
            protocol_errors += 1
            ended = True
        if runs:
            push(link.sensor, runs)
        if ended:
            close(conn, link, bye)

    with socket.create_server(listen_addr) as server, selectors.DefaultSelector() as sel:
        server.setblocking(False)
        sel.register(server, selectors.EVENT_READ)
        if ready is not None:
            ready.set()
        deadline = time.monotonic() + timeout_s
        try:
            while not finished:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    break
                for key, _ in sel.select(wait):
                    if key.data is None:
                        accept()
                    else:
                        receive(key.fileobj, key.data)
                        fuse()
                    if finished:
                        break
        finally:
            for key in sel.get_map().values():
                key.fileobj.close()

    released.extend(aligner.flush())
    fuse()
    records.extend(tracker.finish())
    reports.sort(key=lambda p: (p[0], p[1].rule, p[1].bus, p[1].line or "",
                                p[1].start_k, p[1].end_k if p[1].end_k is not None else -1))
    log = fuse_reports(reports, records)
    return CentralResult(event_log=log, xs=xs, sessions=sessions,
                         rejected=rejected, protocol_errors=protocol_errors,
                         stale_releases=aligner.stale_releases,
                         late=aligner.late, gaps=tracker.gaps, skipped=tracker.skipped)
