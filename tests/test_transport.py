import socket
import threading
import time

import numpy as np
import pytest

from gridwatch.analytics import AnomalyReport, PhasorFrame, StreamColumns
from gridwatch.config import Config
from gridwatch.model import Placement
from gridwatch.pipeline import run_offline
from gridwatch.synth import Scenario, generate, read_stream_csv, write_stream_csv
from gridwatch.central import CentralChangeTracker, build_central_model, fuse_frames
from gridwatch.model import build_system, partition
from gridwatch.transport import (BYE, FRAME, HEARTBEAT, HELLO, REPORT,
                                 ChecksumError, FrameAligner, MalformedError,
                                 Message, MessageStream, ProtocolError, SessionState,
                                 TruncatedError, VersionError, decode, encode,
                                 pace, serve_central, serve_local)

from conftest import raw_sensor_session


def sample_frame(k=3, bus=7):
    rng = np.random.default_rng(k)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return PhasorFrame(k=k, bus=bus, v=v,
                       i_lines={"6-7": rng.normal(size=3) + 1j * rng.normal(size=3),
                                "7-8": rng.normal(size=3) + 1j * rng.normal(size=3)})


def sample_report():
    return AnomalyReport(rule="voltage_mag", label="sag", bus=7, line=None,
                         start_k=10, end_k=55, severity=0.42)


def test_frame_roundtrip_bit_exact():
    f = sample_frame()
    m = Message(kind=FRAME, sensor=7, k=f.k, frame=f)
    back, used = decode(encode(m))
    assert used == len(encode(m))
    assert back.kind == FRAME and back.sensor == 7 and back.k == f.k
    assert np.array_equal(back.frame.v, f.v)
    for lid in f.i_lines:
        assert np.array_equal(back.frame.i_lines[lid], f.i_lines[lid])


def test_report_roundtrip():
    m = Message(kind=REPORT, sensor=7, k=10, report=sample_report())
    back, _ = decode(encode(m))
    assert back.report == sample_report()


def test_hello_bye_heartbeat_roundtrip():
    for kind, info in ((HELLO, {"sensor": 7}), (BYE, {"frames": 3}), (HEARTBEAT, None)):
        m = Message(kind=kind, sensor=7, k=0, info=info)
        back, _ = decode(encode(m))
        assert back.kind == kind
        assert back.info == info


def test_truncated_buffer_raises_typed():
    raw = encode(Message(kind=FRAME, sensor=7, k=3, frame=sample_frame()))
    for cut in (0, 3, 10, len(raw) - 1):
        with pytest.raises(TruncatedError):
            decode(raw[:cut])


def test_checksum_failure():
    raw = bytearray(encode(Message(kind=HEARTBEAT, sensor=1, k=2)))
    raw[6] ^= 0xFF
    with pytest.raises(ChecksumError):
        decode(bytes(raw))


def test_version_mismatch():
    raw = bytearray(encode(Message(kind=HEARTBEAT, sensor=1, k=2)))
    raw[4] = 99  # version byte lives first in the body
    import zlib, struct
    body = bytes(raw[4:-4])
    raw[-4:] = struct.pack("<I", zlib.crc32(body))
    with pytest.raises(VersionError):
        decode(bytes(raw))


def test_oversized_length_rejected_without_allocation():
    import struct
    raw = struct.pack("<I", 1 << 30) + b"x" * 50
    with pytest.raises(ProtocolError):
        decode(raw)


def test_fuzz_smoke_ten_thousand():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(0, 200))
        buf = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        try:
            decode(buf)
        except ProtocolError:
            pass


def test_decode_concatenated_stream():
    msgs = [Message(kind=HEARTBEAT, sensor=i, k=i) for i in range(5)]
    buf = b"".join(encode(m) for m in msgs)
    off = 0
    out = []
    while off < len(buf):
        m, off = decode(buf, off)
        out.append(m.sensor)
    assert out == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------- buffered decoding

def _session():
    """One sensor session's messages and their bytes, with frames whose
    values include signed zeros, infinities, a NaN and subnormals."""
    odd = PhasorFrame(k=6, bus=7,
                      v=np.array([complex(-0.0, np.inf), complex(np.nan, -0.0),
                                  complex(5e-324, -1e308)]),
                      i_lines={"6-7": np.array([-0.0j, 1 + 1j, -np.inf + 0j]),
                               "7-\u00e9": np.zeros(3, dtype=complex)})
    msgs = [Message(kind=HELLO, sensor=7, k=0, info={"sensor": 7})]
    msgs += [Message(kind=FRAME, sensor=7, k=k, frame=sample_frame(k=k)) for k in range(6)]
    msgs += [Message(kind=FRAME, sensor=7, k=6, frame=odd),
             Message(kind=REPORT, sensor=7, k=10, report=sample_report()),
             Message(kind=HEARTBEAT, sensor=7, k=7),
             Message(kind=BYE, sensor=7, k=0, info={})]
    return msgs, b"".join(encode(m) for m in msgs)


def _bits(m: Message) -> tuple:
    """Everything a message carries, with arrays as their raw bytes."""
    f = m.frame
    frame = None if f is None else (
        f.k, f.bus, f.v.dtype.str, f.v.tobytes(),
        tuple((lid, i.dtype.str, i.tobytes()) for lid, i in sorted(f.i_lines.items())))
    return (m.version, m.kind, m.sensor, m.k, m.report, m.info, frame)


def _stream_all(chunks) -> list:
    stream = MessageStream()
    out = []
    for chunk in chunks:
        stream.feed(chunk)
        while (m := stream.read()) is not None:
            out.append(m)
    stream.end()
    return out


def test_decode_bytearray_with_offset_matches_bytes():
    msgs, raw = _session()
    junk = b"\xff" * 7
    buf = bytearray(junk + raw)
    off_b, off_a = 0, len(junk)
    while off_b < len(raw):
        from_bytes, off_b = decode(raw, off_b)
        from_array, off_a = decode(buf, off_a)
        assert off_a == off_b + len(junk)
        assert _bits(from_array) == _bits(from_bytes)
    assert off_a == len(buf)


def test_decoded_arrays_are_the_encoded_bits():
    msgs, raw = _session()
    off = 0
    for m in msgs:
        back, off = decode(raw, off)
        assert _bits(back) == _bits(m)


def test_message_stream_any_chunking():
    msgs, raw = _session()
    want = [_bits(m) for m in msgs]
    rng = np.random.default_rng(11)
    splits = [[raw], [raw[i:i + 1] for i in range(len(raw))]]
    for _ in range(50):
        cuts = sorted(set(rng.integers(0, len(raw), size=int(rng.integers(1, 40))).tolist()))
        bounds = [0, *cuts, len(raw)]
        splits.append([raw[a:b] for a, b in zip(bounds, bounds[1:])])
    for chunks in splits:
        assert [_bits(m) for m in _stream_all(chunks)] == want


def test_message_stream_fuzz_raises_only_protocol_errors():
    """Truncated sessions and bit flips, fed in random chunks: the stream
    yields messages or raises a ProtocolError, nothing else."""
    _, raw = _session()
    rng = np.random.default_rng(12)
    raised = 0
    for trial in range(3000):
        data = bytearray(raw)
        if trial % 2:
            data = data[:int(rng.integers(0, len(raw)))]
        else:
            for pos in rng.integers(0, len(raw), size=int(rng.integers(1, 4))):
                data[pos] ^= 1 << int(rng.integers(0, 8))
        bounds = sorted({0, len(data), *rng.integers(0, len(data) + 1, size=5).tolist()})
        try:
            _stream_all([bytes(data[a:b]) for a, b in zip(bounds, bounds[1:])])
        except ProtocolError:
            raised += 1
    assert raised > 2500


def _layout_session():
    """A session whose frames change layout: lines added, dropped and
    renamed, a frame stamped with another sensor, and reports and
    heartbeats between them. One-line frames carry a -0 current, which a
    sum begun at +0 turns into +0."""
    msgs, _ = _session()
    rng = np.random.default_rng(3)
    c3 = lambda: rng.normal(size=3) + 1j * rng.normal(size=3)
    layouts = [{"6-7": 0, "7-8": 0}, {"6-7": 0}, {}, {"7-8": 0, "6-7": 0, "7-9": 0}]
    out = msgs[:-1]
    k = 7
    for run in range(12):
        lines = layouts[run % len(layouts)]
        sensor = 8 if run == 9 else 7
        for _ in range(int(rng.integers(1, 9))):
            f = PhasorFrame(k=k, bus=sensor, v=c3(), i_lines={lid: c3() for lid in lines})
            if len(lines) == 1:
                f.i_lines["6-7"][0] = complex(-0.0, -0.0)
            out.append(Message(kind=FRAME, sensor=sensor, k=k, frame=f))
            k += int(rng.integers(1, 3))
        if run % 3 == 0:
            out.append(Message(kind=REPORT, sensor=7, k=k, report=sample_report()))
        elif run % 3 == 1:
            out.append(Message(kind=HEARTBEAT, sensor=7, k=k))
    out.append(msgs[-1])
    return b"".join(encode(m) for m in out)


def _summed(i_lines) -> bytes:
    total = np.zeros(3, dtype=complex)
    for i in i_lines.values():
        total += i
    return total.tobytes()


def _consume(chunks, batch: bool) -> tuple[list, str | None]:
    """What a stream yields, one entry per frame or other message, and the
    name of the error it ends with, if any."""
    stream = MessageStream()
    out = []
    try:
        for chunk in chunks:
            stream.feed(chunk)
            while (m := (stream.read_batch() if batch else stream.read())) is not None:
                if not isinstance(m, Message):
                    assert m.ks.dtype == np.uint64
                    out += [("frame", m.sensor, k, vi[0].tobytes(), vi[1].tobytes())
                            for k, vi in zip(m.ks.tolist(), m.vi)]
                elif m.kind == FRAME:
                    out.append(("frame", m.sensor, m.k, m.frame.v.tobytes(),
                                _summed(m.frame.i_lines)))
                else:
                    out.append((m.kind, m.sensor, m.k, m.report, m.info))
        stream.end()
    except ProtocolError as e:
        return out, type(e).__name__
    return out, None


def test_batch_read_matches_read_on_fuzzed_sessions():
    """Bit flips, truncations and layout changes in random chunks: the batch
    reader yields the same frames, bit for bit, and the same other messages
    as `read`, and ends with the same error after the same frames."""
    import struct
    import zlib
    raw = _layout_session()
    starts = [0]
    while starts[-1] < len(raw):
        starts.append(decode(raw, starts[-1])[1])
    rng = np.random.default_rng(13)
    errors = set()
    for trial in range(2000):
        data = bytearray(raw)
        if trial % 4 == 1:
            data = data[:int(rng.integers(0, len(raw)))]
        elif trial % 4 == 2:
            for pos in rng.integers(0, len(raw), size=int(rng.integers(1, 4))):
                data[pos] ^= 1 << int(rng.integers(0, 8))
        elif trial % 4 == 3:
            # a flip inside one body, resealed with a good CRC: a new layout,
            # a malformed payload, another kind or version
            i = int(rng.integers(0, len(starts) - 1))
            a, b = starts[i] + 4, starts[i + 1] - 4
            data[int(rng.integers(a, b))] ^= 1 << int(rng.integers(0, 8))
            data[b:b + 4] = struct.pack("<I", zlib.crc32(bytes(data[a:b])))
        bounds = sorted({0, len(data), *rng.integers(0, len(data) + 1,
                                                     size=int(rng.integers(0, 12))).tolist()})
        chunks = [bytes(data[a:b]) for a, b in zip(bounds, bounds[1:])]
        with np.errstate(invalid="ignore"):   # flipped bits make inf - inf
            want = _consume(chunks, batch=False)
            assert _consume(chunks, batch=True) == want
        errors.add(want[1])
    assert errors >= {None, "TruncatedError", "ChecksumError", "MalformedError",
                      "VersionError"}


def test_complete_message_with_short_payload_is_malformed():
    """A whole message whose frame payload runs short cannot be completed by
    more bytes: the stream raises instead of waiting for them."""
    import struct
    import zlib
    body = struct.pack("<BBIQ", 1, FRAME, 7, 0) + b"\x01" + b"\x00" * 20
    bad = struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))
    stream = MessageStream()
    stream.feed(bad + encode(Message(kind=HEARTBEAT, sensor=7, k=1)))
    with pytest.raises(MalformedError):
        stream.read()


def test_central_path_leaves_decoded_arrays_alone(ieee34):
    """Decoded arrays are read-only views of the message bytes: fusion and
    the tracker read them and never write, so a write would raise here."""
    placement = Placement((7, 19, 31))
    streams = _scenario_streams(ieee34, n_s=0.3)
    model = build_central_model(partition(build_system(ieee34), placement))
    decoded = {b: [decode(encode(Message(kind=FRAME, sensor=b, k=f.k, frame=f)))[0].frame
                   for f in streams[b]] for b in streams}
    frame = decoded[7][0]
    assert not frame.v.flags.writeable
    assert not any(i.flags.writeable for i in frame.i_lines.values())
    xs = {}
    for name, frames in (("decoded", decoded), ("original", streams)):
        xs[name] = got = []
        tracker = CentralChangeTracker(model, Config(),
                                       sink=lambda ks, x, got=got: got.extend(zip(ks, x)))
        aligner = FrameAligner(placement.sensor_buses)
        for k in range(len(frames[7])):
            for b in placement.sensor_buses:
                released = aligner.push(b, *one(k, b, frames[b][k]))
                if released:
                    tracker.step(fuse_frames(model, released))
    assert xs["decoded"] == xs["original"] and xs["decoded"]


# ---------------------------------------------------------------- sessions

def _observe_one_at_a_time(state, ks):
    """The per-frame rule the array form must match."""
    out = []
    for k in ks:
        if k <= state.last_k:
            state.duplicates += 1
            out.append(False)
            continue
        if state.last_k >= 0 and k > state.last_k + 1:
            state.gaps += k - state.last_k - 1
        state.last_k = k
        state.frames += 1
        out.append(True)
    return out


def test_observe_matches_the_per_frame_rule():
    """Random k with duplicates, gaps and reversals, cut into random runs."""
    rng = np.random.default_rng(14)
    top = 2 ** 64 - 1
    for trial in range(300):
        n = int(rng.integers(1, 60))
        base = top - 200 if trial % 5 == 0 else 0
        ks = [base + int(k) for k in np.cumsum(rng.integers(-3, 4, size=n)) + 100]
        ref, got = SessionState(sensor=7), SessionState(sensor=7)
        if trial % 2:
            ref.last_k = got.last_k = base + 100
        want = _observe_one_at_a_time(ref, ks)
        cuts = sorted({0, n, *rng.integers(1, n + 1, size=3).tolist()})
        mask = []
        for a, b in zip(cuts, cuts[1:]):
            mask += got.observe(np.array(ks[a:b], dtype=np.uint64)).tolist()
        assert mask == want
        assert (got.last_k, got.gaps, got.duplicates, got.frames) == \
            (ref.last_k, ref.gaps, ref.duplicates, ref.frames)


# ---------------------------------------------------------------- aligner

def one(k, bus, frame=None):
    """One frame, by default `sample_frame`'s, as a push's one-row columns."""
    cols = StreamColumns.from_frames([frame or sample_frame(k=k, bus=bus)])
    return cols.ks, cols.vi


def released_ks(out):
    return [k for r in out for k in r.ks.tolist()]


def test_aligner_releases_complete_sets_in_order():
    al = FrameAligner({1, 2})
    assert al.push(1, *one(0, 1)) == []
    out = al.push(2, *one(0, 2))
    assert released_ks(out) == [0]
    assert al.push(2, *one(1, 2)) == []
    out = al.push(1, *one(1, 1))
    assert released_ks(out) == [1]
    assert al.push(1, *one(2, 1)) == []
    out = al.push(2, *one(2, 2))
    assert released_ks(out) == [2]


def test_aligner_stale_release_counts():
    al = FrameAligner({1, 2})
    al.push(1, *one(0, 1))
    # sensor 2 could still send k=0, so k=0 waits however long that takes
    assert al.push(1, *one(1, 1)) == []
    out = al.end(2)   # sensor 2 ends its session without ever sending k=0
    assert released_ks(out) == [0]
    assert al.stale_releases == 1


def test_aligner_late_frame_after_reconnect():
    al = FrameAligner({1, 2})
    al.push(1, *one(0, 1))
    assert released_ks(al.push(2, *one(0, 2))) == [0]
    al.end(2)
    # sensor 2 reconnects and replays k=0, which is already fused
    assert al.push(2, *one(0, 2)) == []
    assert al.late == 1
    # once back, sensor 2 holds later samples back again
    assert al.push(1, *one(1, 1)) == []
    assert al.push(1, *one(2, 1)) == []
    assert released_ks(al.push(2, *one(1, 2))) == [1]
    assert al.stale_releases == 0


def test_aligner_flush():
    al = FrameAligner({1, 2})
    al.push(1, *one(5, 1))
    out = al.flush()
    assert released_ks(out) == [5]
    assert len(al.pending) == 0


# ---------------------------------------------------------------- replay csv

def test_replay_csv_roundtrip(tmp_path, ieee34):
    sc = Scenario(feeder="ieee34", duration_s=0.2,
                  base_loads={25: np.full(3, 0.001 + 0.0005j)},
                  noise_sigma=1e-4, sensors=(7,), seed=3)
    streams, _ = generate(sc, ieee34)
    path = tmp_path / "bus7.csv"
    write_stream_csv(path, streams[7], sc.start_time)
    back = list(pace(read_stream_csv(path)[0].frames(), rate_multiplier=0.0))
    assert len(back) == len(streams[7])
    for a, b in zip(streams[7], back):
        assert a.k == b.k
        assert np.array_equal(a.v, b.v)


# ---------------------------------------------------------------- processes

def _scenario_streams(ieee34, n_s=1.0, sensors=(7, 19, 31)):
    sc = Scenario(feeder="ieee34", duration_s=n_s,
                  base_loads={25: np.full(3, 0.001 + 0.0005j)},
                  noise_sigma=1e-4, sensors=sensors, seed=5)
    return generate(sc, ieee34)[0]


def _run_networked(ieee34, streams, placement, cfg, port_holder, delays=None):
    """Replay each sensor through its own sender; `delays` holds a start
    delay in seconds per bus."""
    ready = threading.Event()
    result_box = {}

    def central():
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port_holder.append(probe.getsockname()[1])
        result_box["res"] = serve_central(("127.0.0.1", port_holder[0]), ieee34,
                                          placement, cfg, ready=ready, timeout_s=30.0)

    t = threading.Thread(target=central)
    t.start()
    ready.wait(timeout=10.0)
    def sender(bus):
        time.sleep((delays or {}).get(bus, 0.0))
        serve_local(streams[bus], bus, ("127.0.0.1", port_holder[0]), ieee34, cfg)

    locals_ = []
    for bus in placement.sensor_buses:
        th = threading.Thread(target=sender, args=(bus,))
        th.start()
        locals_.append(th)
    for th in locals_:
        th.join(timeout=30.0)
    t.join(timeout=30.0)
    return result_box["res"]


def test_network_transparency_small(ieee34):
    cfg = Config()
    placement = Placement((7, 19, 31))
    streams = _scenario_streams(ieee34)
    offline = run_offline(ieee34, placement, streams, cfg=cfg)
    res = _run_networked(ieee34, streams, placement, cfg, [])
    assert res.event_log.to_jsonl() == offline.event_log.to_jsonl()
    assert res.xs == offline.xs


def test_network_transparency_late_sender(ieee34):
    """A sensor that connects long after the others still lands in every
    fused sample: fusion waits on the sensors, not on the clock."""
    cfg = Config()
    placement = Placement((7, 19, 31))
    streams = _scenario_streams(ieee34)
    offline = run_offline(ieee34, placement, streams, cfg=cfg)
    res = _run_networked(ieee34, streams, placement, cfg, [], delays={31: 0.5})
    assert res.event_log.to_jsonl() == offline.event_log.to_jsonl()
    assert res.xs == offline.xs


def test_central_waits_for_dropped_sensor(ieee34):
    """A link that drops without Bye does not end the run: the central waits
    for the sensor to come back, and its reports still reach the log."""
    cfg = Config()
    placement = Placement((7, 19))
    streams = _scenario_streams(ieee34, sensors=(7, 19))
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    ready = threading.Event()
    box = {}

    def central():
        box["res"] = serve_central(("127.0.0.1", port), ieee34, placement, cfg,
                                   ready=ready, timeout_s=30.0)

    t = threading.Thread(target=central)
    t.start()
    ready.wait(timeout=10.0)
    raw_sensor_session(port, 7, streams[7][:10], bye=False)
    time.sleep(0.2)
    serve_local(streams[19], 19, ("127.0.0.1", port), ieee34, cfg)
    t.join(timeout=0.5)
    assert t.is_alive(), "central returned while sensor 7 was still expected"
    # the reconnected sensor resends from k=0: k < 10 are duplicates, and the
    # rest arrive after those samples were fused without it
    serve_local(streams[7], 7, ("127.0.0.1", port), ieee34, cfg, max_retry_s=2.0)
    t.join(timeout=30.0)
    assert not t.is_alive()
    res = box["res"]
    # 7's link was down while 19 streamed, so k >= 10 were fused without 7,
    # as the offline pipeline fuses a central stream that stops at k = 9
    offline = run_offline(ieee34, placement, streams,
                          central_streams={7: streams[7][:10], 19: streams[19]}, cfg=cfg)
    assert res.event_log.to_jsonl() == offline.event_log.to_jsonl()
    assert res.xs == offline.xs
    assert res.sessions[7].frames == 120 and res.sessions[7].done
    assert (res.stale_releases, res.late, res.gaps, res.skipped) == (110, 110, 110, 0)


def test_central_rejects_unknown_sensor(ieee34):
    cfg = Config()
    placement = Placement((7, 19))
    streams = _scenario_streams(ieee34, n_s=0.3, sensors=(7, 19, 31))
    ready = threading.Event()
    box = {}
    port = []

    def central():
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port.append(probe.getsockname()[1])
        box["res"] = serve_central(("127.0.0.1", port[0]), ieee34, placement,
                                   cfg, ready=ready, timeout_s=8.0)

    t = threading.Thread(target=central)
    t.start()
    ready.wait(timeout=10.0)
    try:
        # the central drops this session; the sender may only notice the
        # broken pipe asynchronously, so both outcomes are acceptable here
        serve_local(streams[31], 31, ("127.0.0.1", port[0]), ieee34, cfg,
                    max_retry_s=1.0)
    except ConnectionError:
        pass
    for bus in (7, 19):
        serve_local(streams[bus], bus, ("127.0.0.1", port[0]), ieee34, cfg)
    t.join(timeout=30.0)
    assert box["res"].rejected >= 1
    assert set(box["res"].sessions) == {7, 19}


def _serve(ieee34, placement, send, timeout_s=30.0):
    """serve_central on a free local port while `send(port)` writes the
    sessions; returns its result."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    box = {}
    ready = threading.Event()
    t = threading.Thread(target=lambda: box.update(res=serve_central(
        ("127.0.0.1", port), ieee34, placement, Config(), ready=ready, timeout_s=timeout_s)))
    t.start()
    ready.wait(timeout=10.0)
    send(port)
    t.join(timeout=timeout_s + 10.0)
    assert not t.is_alive()
    return box["res"]


def _hello(sensor):
    return encode(Message(kind=HELLO, sensor=sensor, k=0, info={"sensor": sensor}))


def _frame(f, sensor=None):
    sensor = f.bus if sensor is None else sensor
    return encode(Message(kind=FRAME, sensor=sensor, k=f.k, frame=f))


def replace_v(f, scale):
    return PhasorFrame(k=f.k, bus=f.bus, v=f.v * scale, i_lines=f.i_lines)


def test_central_ends_session_stamped_with_another_sensor(ieee34):
    """After Hello, a message stamped with another sensor ends the session as
    a protocol error: such a frame is not fused as the session's sensor, and
    such a Bye does not finish the session."""
    from conftest import connect_when_listening

    placement = Placement((7, 31))
    streams = _scenario_streams(ieee34, n_s=0.3, sensors=(7, 31))
    stray = {7: _frame(replace_v(streams[7][5], 10.0), sensor=19),
             31: encode(Message(kind=BYE, sensor=19, k=0, info={}))}

    def send(port):
        for bus in (7, 31):
            with connect_when_listening(port) as conn:
                conn.sendall(_hello(bus) + b"".join(_frame(f) for f in streams[bus][:5])
                             + stray[bus] + encode(Message(kind=BYE, sensor=bus, k=0, info={})))

    res = _serve(ieee34, placement, send, timeout_s=2.0)
    assert res.protocol_errors == 2
    assert {b: (s.frames, s.done) for b, s in res.sessions.items()} == {7: (5, False),
                                                                        31: (5, False)}
    offline = run_offline(ieee34, placement, {b: streams[b][:5] for b in (7, 31)})
    assert res.xs == offline.xs and len(res.xs) == 5


def test_serve_path_builds_no_frame_objects(ieee34, monkeypatch):
    """Two sessions of 2,000 frames with reports between them: frames are
    read in runs, and a frame message is parsed one at a time only where a
    run meets a new layout, not once per frame."""
    import gridwatch.transport as tr
    from conftest import connect_when_listening

    parsed, runs = [], []
    parse, run = tr._parse_frame_payload, tr._FrameLayout.run

    def counted_parse(*args):
        parsed.append(args[3])
        return parse(*args)

    def counted_run(self, raw, off):
        out = run(self, raw, off)
        if out is not None:
            runs.append(len(out.ks))
        return out

    monkeypatch.setattr(tr, "_parse_frame_payload", counted_parse)
    monkeypatch.setattr(tr._FrameLayout, "run", counted_run)
    placement = Placement((7, 31))

    def send(port):
        for bus in placement.sensor_buses:
            parts = [_hello(bus)]
            for k in range(2000):
                if k % 37 == 5:
                    parts.append(encode(Message(kind=REPORT, sensor=bus, k=k,
                                                report=sample_report())))
                parts.append(_frame(sample_frame(k=k, bus=bus)))
            parts.append(encode(Message(kind=BYE, sensor=bus, k=0, info={})))
            with connect_when_listening(port) as conn:
                conn.sendall(b"".join(parts))

    res = _serve(ieee34, placement, send)
    assert [res.sessions[b].frames for b in (7, 31)] == [2000, 2000]
    assert len(res.xs) == 2000 and res.protocol_errors == 0
    assert sum(runs) == 4000 and len(runs) >= 2 * 2000 // 37
    assert len(parsed) <= len(runs) and len(parsed) == 2   # one layout per session


def test_central_keeps_k_up_to_the_wire_limit(ieee34):
    """k travels as u64: a session whose k reach 2**64 - 2 gives the same
    (k, x) rows as its frames decoded one at a time and fused offline."""
    placement = Placement((7,))
    base = _scenario_streams(ieee34, n_s=0.3, sensors=(7,))[7]
    top = 2 ** 64 - 2
    frames = [PhasorFrame(k=top - len(base) + 1 + i, bus=7, v=f.v, i_lines=f.i_lines)
              for i, f in enumerate(base)]
    res = _serve(ieee34, placement, lambda port: raw_sensor_session(port, 7, frames, bye=True))
    decoded = [decode(_frame(f))[0].frame for f in frames]
    offline = run_offline(ieee34, placement, {}, central_streams={7: decoded})
    assert [k for k, _ in res.xs] == [f.k for f in decoded] and res.xs[-1][0] == top
    assert res.xs == offline.xs


def test_disconnect_resilience_no_report_loss(ieee34, tmp_path):
    """Kill the first central mid-stream; every report survives the outage."""
    cfg = Config()
    placement = Placement((7,))
    streams = _scenario_streams(ieee34, n_s=2.0, sensors=(7,))
    frames = streams[7]
    offline = run_offline(ieee34, placement, streams, cfg=cfg)
    expected_reports = sum(len(v) for v in offline.local_reports.values())

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    # first central accepts one session then drops it after ~60 frames
    def flaky():
        srv = socket.create_server(("127.0.0.1", port))
        conn, _ = srv.accept()
        got = 0
        while got < 60 * 200:
            chunk = conn.recv(4096)
            if not chunk:
                break
            got += len(chunk)
        conn.close()
        srv.close()

    flaky_t = threading.Thread(target=flaky)
    flaky_t.start()

    box = {}
    ready = threading.Event()

    def real_central():
        flaky_t.join()
        time.sleep(0.3)  # induced outage window
        box["res"] = serve_central(("127.0.0.1", port), ieee34, placement, cfg,
                                   ready=ready, timeout_s=30.0)

    central_t = threading.Thread(target=real_central)
    central_t.start()

    stats = serve_local(frames, 7, ("127.0.0.1", port), ieee34, cfg,
                        spool_path=tmp_path / "spool.bin", max_retry_s=20.0)
    central_t.join(timeout=40.0)
    res = box["res"]
    received = sum(1 for e in res.event_log.entries if e.origin == "7")
    assert stats.reconnects >= 1
    assert received == len({(r.record.rule, r.record.bus, r.record.line,
                             r.record.start_k, r.record.end_k)
                            for r in res.event_log.entries if r.origin == "7"})
    assert received == expected_reports_after_fusion(offline)


def expected_reports_after_fusion(offline):
    seen = set()
    for bus, reps in offline.local_reports.items():
        for r in reps:
            key = (r.rule, r.bus, r.line, r.start_k)
            seen.add(key)
    return len(seen)


def test_report_priority_over_frames(monkeypatch, ieee34):
    """A report generated at step k ships before step k's own frame."""
    from gridwatch.synth import Event

    sc = Scenario(feeder="ieee34", duration_s=4.0,
                  base_loads={25: np.full(3, 0.001 + 0.0005j)},
                  noise_sigma=0.0, sensors=(7,), seed=5,
                  events=(Event(kind="voltage_sag", bus=1, start_k=30,
                                end_k=200, magnitude=0.5),))
    streams = generate(sc, ieee34)[0]

    sent = []

    class RecordingSock:
        def sendall(self, b):
            off = 0
            while off < len(b):
                m, off = decode(b, off)
                sent.append((m.kind, m.k))

        def close(self):
            pass

    import gridwatch.transport as tr
    monkeypatch.setattr(tr.socket, "create_connection",
                        lambda addr, timeout=None: RecordingSock())

    serve_local(streams[7], 7, ("127.0.0.1", 1), ieee34, Config())
    kinds = [k for k, _ in sent]
    last_frame = max(i for i, k in enumerate(kinds) if k == FRAME)
    mid_reports = [i for i, k in enumerate(kinds) if k == REPORT and i < last_frame]
    assert mid_reports, "expected a mid-stream report"
    for i in mid_reports:
        # the report rides between two consecutive frames: it was drained
        # ahead of the frame produced by the same step, never behind it
        nxt = next(j for j in range(i + 1, len(sent)) if sent[j][0] == FRAME)
        prev = next(j for j in range(i - 1, -1, -1) if sent[j][0] == FRAME)
        assert sent[nxt][1] == sent[prev][1] + 1
