import socket
import threading
import time

import numpy as np
import pytest

from gridwatch.analytics import AnomalyReport, PhasorFrame
from gridwatch.config import Config
from gridwatch.model import Placement
from gridwatch.pipeline import run_offline
from gridwatch.synth import Scenario, generate, read_stream_csv, write_stream_csv
from gridwatch.central import CentralChangeTracker, build_central_model, fuse_frames
from gridwatch.model import build_system, partition
from gridwatch.transport import (BYE, FRAME, HEARTBEAT, HELLO, REPORT,
                                 ChecksumError, FrameAligner, MalformedError,
                                 Message, MessageStream, ProtocolError,
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
                released = aligner.push(b, frames[b][k])
                if released:
                    tracker.step(fuse_frames(model, released))
    assert xs["decoded"] == xs["original"] and xs["decoded"]


# ---------------------------------------------------------------- aligner

def test_aligner_releases_complete_sets_in_order():
    al = FrameAligner({1, 2})
    f1 = sample_frame(k=0, bus=1)
    assert al.push(1, f1) == []
    out = al.push(2, sample_frame(k=0, bus=2))
    assert [k for k, _ in out] == [0]
    al.push(1, sample_frame(k=2, bus=1))
    al.push(2, sample_frame(k=1, bus=2))
    out = al.push(1, sample_frame(k=1, bus=1))
    assert [k for k, _ in out] == [1]
    out = al.push(2, sample_frame(k=2, bus=2))
    assert [k for k, _ in out] == [2]


def test_aligner_stale_release_counts():
    al = FrameAligner({1, 2})
    al.push(1, sample_frame(k=0, bus=1))
    # sensor 2 could still send k=0, so k=0 waits however long that takes
    assert al.push(1, sample_frame(k=1, bus=1)) == []
    out = al.end(2)   # sensor 2 ends its session without ever sending k=0
    assert [k for k, _ in out] == [0]
    assert al.stale_releases == 1


def test_aligner_late_frame_after_reconnect():
    al = FrameAligner({1, 2})
    al.push(1, sample_frame(k=0, bus=1))
    assert [k for k, _ in al.push(2, sample_frame(k=0, bus=2))] == [0]
    al.end(2)
    # sensor 2 reconnects and replays k=0, which is already fused
    assert al.push(2, sample_frame(k=0, bus=2)) == []
    assert al.late == 1
    # once back, sensor 2 holds later samples back again
    assert al.push(1, sample_frame(k=1, bus=1)) == []
    assert al.push(1, sample_frame(k=2, bus=1)) == []
    assert [k for k, _ in al.push(2, sample_frame(k=1, bus=2))] == [1]
    assert al.stale_releases == 0


def test_aligner_flush():
    al = FrameAligner({1, 2})
    al.push(1, sample_frame(k=5, bus=1))
    out = al.flush()
    assert [k for k, _ in out] == [5]
    assert al.pending == {}


# ---------------------------------------------------------------- replay csv

def test_replay_csv_roundtrip(tmp_path, ieee34):
    sc = Scenario(feeder="ieee34", duration_s=0.2,
                  base_loads={25: np.full(3, 0.001 + 0.0005j)},
                  noise_sigma=1e-4, sensors=(7,), seed=3)
    streams, _ = generate(sc, ieee34)
    path = tmp_path / "bus7.csv"
    write_stream_csv(path, streams[7], sc.start_time)
    back = list(pace(read_stream_csv(path)[0], rate_multiplier=0.0))
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
