"""The stream CSV reader (docs/streams.md) against a per-row oracle.

`oracle_read` is the reader as it was before streams were read as columns:
one row at a time with Python's `int` and `float`, building one frame per
k. `read_stream_csv` must give the same frames, the same summed-current
bits and the same skipped count on any file, except where the two parsers
disagree on a number's spelling (`test_reader_and_python_parse_some_spellings_apart`).

The tests at the end run `run_offline` over streams and check its forked
local engines against `serial_offline`, the same hierarchy in one process.
"""
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from gridwatch.analytics import PhasorFrame, StreamColumns
from gridwatch.central import (CentralChangeTracker, build_central_model, fuse_frames,
                               fuse_reports, group_frames)
from gridwatch.config import Config
from gridwatch.model import Placement, build_system, load_feeder, partition
from gridwatch.pipeline import BLOCK_FRAMES, forked, run_local_engine, run_offline
from gridwatch.synth import (CSV_HEADER, Scenario, ScenarioError, apply_replay_attack,
                             generate, read_stream_csv, write_stream_csv, write_streams)
from gridwatch.transport import FRAME, Message, MessageStream, encode

from conftest import DATA, scenario_path


def oracle_read(path):
    """(frames, skipped) of a stream CSV, parsed row by row."""
    frames: dict[int, dict] = {}
    skipped = 0
    with open(path) as fh:
        assert fh.readline().rstrip("\n") == CSV_HEADER
        for raw in fh:
            parts = raw.rstrip("\n").split(",")
            if len(parts) != 15:
                skipped += 1
                continue
            try:
                k = int(parts[0])
                x = [float(t) for t in parts[2:8] + parts[9:15]]
            except ValueError:
                skipped += 1
                continue
            if not 0 <= k < 1 << 64:
                skipped += 1
                continue
            if not math.isfinite(sum(x)) and not all(map(math.isfinite, x)):
                skipped += 1
                continue
            v = np.array([complex(x[0], x[1]), complex(x[2], x[3]), complex(x[4], x[5])])
            i = np.array([complex(x[6], x[7]), complex(x[8], x[9]), complex(x[10], x[11])])
            slot = frames.setdefault(k, {"v": v, "i": {}})
            slot["i"][parts[8]] = i
    out = [PhasorFrame(k=k, bus=7, v=slot["v"], i_lines=slot["i"])
           for k, slot in sorted(frames.items())]
    return out, skipped


def oracle_sum(frame):
    """A frame's line currents added onto +0 in line-id order."""
    s = np.zeros(3, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        for lid in sorted(frame.i_lines):
            s += frame.i_lines[lid]
    return s


def assert_same_as_oracle(path):
    want, want_skipped = oracle_read(path)
    got, skipped = read_stream_csv(path)
    assert skipped == want_skipped
    assert got.bus == 7 and len(got) == len(want)
    assert got.ks.dtype == np.uint64
    for a, b in zip(want, got):
        assert a.k == b.k
        assert a.v.tobytes() == b.v.tobytes()
        assert sorted(a.i_lines) == list(b.i_lines)
        for lid, i in a.i_lines.items():
            assert i.tobytes() == b.i_lines[lid].tobytes()
    assert got.vi[:, 1].tobytes() == b"".join(oracle_sum(f).tobytes() for f in want)
    return len(want), skipped


# ---------------------------------------------------------------- fuzz

LINES = ("6-7", "7-8", " x y ", "")
GOOD_K = ("{}", " {}", "{}\t", "+{}", "0{}")
BAD_PART = ("abc", "", "1.5e", "0x10", "1..2", "--1", "in f")
NON_FINITE = ("nan", "inf", "-inf", "Infinity", "-NaN", "1e400")


def _part(rng):
    x = rng.normal() * 10.0 ** int(rng.integers(-6, 4))
    r = rng.random()
    if r < 0.02:
        return "-0.0"
    if r < 0.04:
        return repr(1e308 * (1 if rng.random() < 0.5 else -1))   # sums can overflow
    if r < 0.08:
        return f"{x:.6e}"
    if r < 0.10:
        return f" {x!r} "
    return repr(x)


def _row(rng, k, v, line):
    parts = [GOOD_K[int(rng.integers(len(GOOD_K)))].format(k), "2026-01-01T00:00:00"]
    parts += v + [line] + [_part(rng) for _ in range(6)]
    return parts


def _mutate(rng, parts):
    """One kind of damage to a row's fields, or none."""
    r = rng.random()
    parts = list(parts)
    if r < 0.03:
        return parts[:-1]
    if r < 0.06:
        return parts + ["1.0"]
    if r < 0.08:
        return []                                   # a blank line
    if r < 0.11:
        parts[int(rng.choice([2, 5, 9, 14]))] = BAD_PART[int(rng.integers(len(BAD_PART)))]
    elif r < 0.14:
        parts[int(rng.choice([3, 7, 10, 13]))] = NON_FINITE[int(rng.integers(len(NON_FINITE)))]
    elif r < 0.16:
        parts[0] = str(-int(rng.integers(1, 1000)))
    elif r < 0.18:
        parts[0] = str((1 << 64) + int(rng.integers(0, 1000)))
    elif r < 0.20:
        parts[0] = str((1 << 64) - 1)
    elif r < 0.22:
        parts[0] = "12.0"
    return parts


def fuzzed_stream(rng) -> str:
    rows = []
    ks = rng.choice(60, size=int(rng.integers(0, 25)), replace=False).tolist()
    for k in ks:
        v = [_part(rng) for _ in range(6)]
        lines = [l for l in LINES if rng.random() < 0.6]
        rng.shuffle(lines)                          # line order changes per k
        for line in lines:
            rows.append(_row(rng, k, v, line))
            if rng.random() < 0.1:                  # the same (k, line) again
                rows.append(_row(rng, k, v, line))
        if rng.random() < 0.1:                      # k again, another voltage
            rows.append(_row(rng, k, [_part(rng) for _ in range(6)], LINES[0]))
    if rng.random() < 0.5:                          # rows out of k order
        rng.shuffle(rows)
    text = [",".join(_mutate(rng, r)) for r in rows]
    end = "\r\n" if rng.random() < 0.25 else "\n"
    return end.join([CSV_HEADER] + text) + (end if rng.random() < 0.8 else "")


def test_reader_matches_per_row_oracle_on_fuzzed_files(tmp_path):
    rng = np.random.default_rng(13)
    frames = skipped = 0
    path = tmp_path / "bus7.csv"
    for _ in range(400):
        path.write_bytes(fuzzed_stream(rng).encode())
        n, s = assert_same_as_oracle(path)
        frames += n
        skipped += s
    # the cases are not all empty or all clean
    assert frames > 2000 and skipped > 300, (frames, skipped)


def test_reader_isolates_bad_rows_in_large_chunks(tmp_path):
    """Rows past the first chunk, bad ones spread through it, with no
    trailing newline."""
    rng = np.random.default_rng(2)
    rows = []
    for k in range(6000):
        v = [repr(x) for x in rng.normal(size=6).tolist()]
        for line in ("6-7", "7-8"):
            i = [repr(x) for x in rng.normal(size=6).tolist()]
            rows.append(",".join([str(k), "t"] + v + [line] + i))
    for at in rng.choice(len(rows), size=25, replace=False).tolist():
        rows[at] = "x" + rows[at] if at % 2 else rows[at] + ",1"
    path = tmp_path / "bus7.csv"
    path.write_text("\n".join([CSV_HEADER] + rows))
    n, skipped = assert_same_as_oracle(path)
    assert (n, skipped) == (6000, 25)


def test_reader_and_python_parse_some_spellings_apart(tmp_path):
    """Where the reader and Python's parsers part (docs/streams.md): digit-
    group underscores, non-ASCII digits and -0 as k, which `int` and
    `float` accept, make a row malformed; U+001C to U+001F around a number,
    which they refuse, count as space."""
    v = ",".join(["1.0", "0.0"] * 3)
    i = ",".join(["0.5", "0.0"] * 3)
    odd = [f"1_0,t,{v},6-7,{i}", f"11,t,{v},6-7,{i.replace('0.5', '0_5', 1)}",
           f"-0,t,{v},6-7,{i}", f"１２,t,{v},6-7,{i}",
           f"13,t,{v},6-7,{i.replace('0.5', chr(0x661), 1)}",
           f"\x1c14,t,{v},6-7,{i.replace('0.5', '0.5' + chr(0x1f), 1)}"]
    path = tmp_path / "bus7.csv"
    path.write_text("\n".join([CSV_HEADER, f"1,t,{v},6-7,{i}"] + odd) + "\n")
    want, want_skipped = oracle_read(path)
    got, skipped = read_stream_csv(path)
    assert ([f.k for f in want], want_skipped) == ([0, 1, 10, 11, 12, 13], 1)
    assert (got.ks.tolist(), skipped) == ([1, 14], 5)


def test_reader_refuses_k_written_as_float_on_any_numpy(tmp_path, monkeypatch):
    """Some numpy versions read '12.0' into an integer field with only a
    DeprecationWarning; the row is malformed all the same."""
    real = np.loadtxt

    def lenient_loadtxt(lines, *args, **kwargs):
        fixed = []
        for line in lines:
            k, rest = line.split(",", 1)
            if k.endswith(".0"):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
                k = k[:-2]
            fixed.append(f"{k},{rest}")
        return real(fixed, *args, **kwargs)

    v = ",".join(["1.0", "0.0"] * 3)
    path = tmp_path / "bus7.csv"
    path.write_text("\n".join([CSV_HEADER] + [f"{k},t,{v},6-7,{v}" for k in
                                             ("0", "1", "2.0", "3", "4.0")]) + "\n")
    want = read_stream_csv(path)
    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    got = read_stream_csv(path)
    assert (got[0].ks.tolist(), got[1]) == (want[0].ks.tolist(), want[1]) == ([0, 1, 3], 2)


def test_reader_keeps_k_up_to_the_u64_limit(tmp_path):
    v = ",".join(["1.0", "0.0"] * 3)
    path = tmp_path / "bus7.csv"
    path.write_text("\n".join([CSV_HEADER] + [f"{k},t,{v},6-7,{v}" for k in
                                             (2**64 - 1, 2**63, 0, 2**64)]) + "\n")
    got, skipped = read_stream_csv(path)
    assert got.ks.tolist() == [0, 2**63, 2**64 - 1] and skipped == 1


def test_reader_skips_rows_with_undecodable_bytes(tmp_path):
    """A byte that does not decode makes its row malformed, in a phasor part
    or in the line id; a line id that decodes is kept, non-ASCII or not."""
    v = ",".join(["1.0", "0.0"] * 3)
    rows = [f"{k},t,{v},{lid},{v}".encode() for k, lid in
            [(0, "6-7"), (1, "6-7"), (2, "6-\u00e9"), (3, "6-7"), (4, "6-7")]]
    rows[1] = rows[1].replace(b",1.0,", b",1.0\xff,", 1)
    rows[3] = rows[3].replace(b",6-7,", b",6-\xff7,", 1)
    bad, good = tmp_path / "bus7.csv", tmp_path / "clean" / "bus7.csv"
    bad.write_bytes(b"\n".join([CSV_HEADER.encode(), *rows]) + b"\n")
    good.parent.mkdir()
    good.write_bytes(b"\n".join([CSV_HEADER.encode(), rows[0], rows[2], rows[4]]) + b"\n")
    got, skipped = read_stream_csv(bad)
    want, none = read_stream_csv(good)
    assert (skipped, none) == (2, 0)
    assert got.ks.tolist() == [0, 2, 4] and list(got.lines) == ["6-7", "6-\u00e9"]
    assert got.vi.tobytes() == want.vi.tobytes()
    bad.write_bytes(b"\xff" + bad.read_bytes())
    with pytest.raises(ScenarioError, match="unexpected header"):
        read_stream_csv(bad)


def test_reader_warns_nothing_on_overflowing_sums(tmp_path):
    """Finite currents whose sum overflows, or infinite ones: no numpy
    warning (warnings are errors in this suite), the sum is inf, and the
    non-finite row is skipped."""
    v = ",".join(["1.0", "0.0"] * 3)
    big = ",".join(["1e308", "0.0"] * 3)
    path = tmp_path / "bus7.csv"
    path.write_text("\n".join([CSV_HEADER, f"0,t,{v},6-7,{big}", f"0,t,{v},7-8,{big}",
                               f"1,t,{v},6-7,{big.replace('1e308', 'inf', 1)}"]) + "\n")
    got, skipped = read_stream_csv(path)
    assert skipped == 1 and got.ks.tolist() == [0]
    assert np.isinf(got.vi[0, 1].real).all()


def test_summed_current_same_as_off_the_wire(tmp_path):
    """Three lines written out of id order at every k: the reader sums a
    frame's currents in line-id order, as the central node sums the same
    frame read off the wire, so the two agree bit for bit."""
    rng = np.random.default_rng(6)
    c3 = lambda: (rng.normal(size=3) + 1j * rng.normal(size=3)) * 10.0 ** rng.integers(-3, 4)
    frames = [PhasorFrame(k=k, bus=7, v=c3(), i_lines={lid: c3() for lid in ("7-9", "6-7", "7-8")})
              for k in range(200)]
    parts = lambda c: ",".join(f"{x!r}" for z in c.tolist() for x in (z.real, z.imag))
    path = tmp_path / "bus7.csv"
    path.write_text("\n".join([CSV_HEADER] + [f"{f.k},t,{parts(f.v)},{lid},{parts(i)}"
                                             for f in frames for lid, i in f.i_lines.items()]))
    got, skipped = read_stream_csv(path)
    stream = MessageStream()
    stream.feed(b"".join(encode(Message(kind=FRAME, sensor=7, k=f.k, frame=f)) for f in frames))
    runs = []
    while (run := stream.read_batch()) is not None:
        runs.append(run)
    wire = np.concatenate([run.vi for run in runs])
    assert skipped == 0 and got.ks.tolist() == list(range(200))
    assert got.vi.tobytes() == wire.tobytes()


# ---------------------------------------------------------------- columns

def test_stream_bus_from_file_name_only(tmp_path):
    v = ",".join(["1.0", "0.0"] * 3)
    for name, bus in (("bus7.csv", 7), ("bus07.csv", 7), ("bus123.csv", 123),
                      ("bus7_v2.csv", -1), ("sensor7.csv", -1), ("bus.csv", -1)):
        path = tmp_path / name
        path.write_text(f"{CSV_HEADER}\n0,t,{v},6-7,{v}\n")
        assert read_stream_csv(path)[0].bus == bus, name


def test_row_ranges_and_frames_round_trip():
    rng = np.random.default_rng(3)
    c3 = lambda: rng.normal(size=3) + 1j * rng.normal(size=3)
    frames = [PhasorFrame(k=k, bus=7, v=c3(),
                          i_lines={lid: c3() for lid in ("7-8", "6-7") if rng.random() < 0.7})
              for k in range(0, 300, 3)]
    cols = StreamColumns.from_frames(frames)
    for a, b in ((0, 100), (10, 17), (50, 50), (99, 200)):
        part = cols[a:b]
        assert len(part) == len(frames[a:b])
        back = list(part)
        for f, g in zip(frames[a:b], back):
            assert (f.k, f.v.tobytes()) == (g.k, g.v.tobytes())
            assert {l: i.tobytes() for l, i in f.i_lines.items()} == \
                   {l: i.tobytes() for l, i in g.i_lines.items()}
        assert part.vi[:, 1].tobytes() == b"".join(oracle_sum(f).tobytes() for f in frames[a:b])
        assert all(len(rows) for rows, _ in part.lines.values())


def test_reader_memory_per_frame(tmp_path):
    """Columns of a 2-line stream retain at most 300 B per frame, and
    building frames from them holds nothing per frame."""
    rng = np.random.default_rng(4)
    n = 12_000
    frames = [PhasorFrame(k=k, bus=7, v=rng.normal(size=3) + 0j,
                          i_lines={"6-7": rng.normal(size=3) + 0j, "7-8": rng.normal(size=3) + 0j})
              for k in range(n)]
    path = tmp_path / "bus7.csv"
    write_stream_csv(path, StreamColumns.from_frames(frames), "2026-01-01T00:00:00+00:00")
    del frames
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = read_stream_csv(path)
        retained = tracemalloc.get_traced_memory()[0] - before
        frames = iter(kept[0])
        first = next(frames)
        building = tracemalloc.get_traced_memory()[0] - before - retained
    finally:
        tracemalloc.stop()
    assert len(kept[0]) == n and first.k == 0
    assert retained / n <= 300, retained / n
    assert building <= 4096, building


@pytest.mark.parametrize("name", ["slgf", "fault_at_sensor", "load_loss", "quiet"])
def test_offline_run_same_from_csv_columns_and_generated_frames(tmp_path, name):
    """run_offline over the CSVs' columns equals run_offline over the
    columns the generator returns, byte for byte."""
    scenario = Scenario.from_json(scenario_path(name).read_text())
    feeder = load_feeder(DATA / f"{scenario.feeder}.feeder")
    streams, truth = generate(scenario, feeder)
    write_streams(tmp_path, streams, scenario, truth)
    columns = {b: read_stream_csv(tmp_path / f"bus{b}.csv")[0] for b in streams}
    assert all(len(columns[b]) == len(streams[b]) for b in streams)
    placement = Placement(tuple(sorted(streams)))
    a = run_offline(feeder, placement, columns)
    b = run_offline(feeder, placement, streams)
    assert a.event_log.to_jsonl() == b.event_log.to_jsonl()
    assert [(k, repr(x)) for k, x in a.xs] == [(k, repr(x)) for k, x in b.xs]
    assert (a.gaps, a.skipped) == (b.gaps, b.skipped)
    assert_same_as_serial(b, serial_offline(feeder, placement, streams))


# ---------------------------------------------------------------- one process per sensor

def serial_offline(feeder, placement, local, central=None):
    """run_offline in one process: each sensor's engine in turn, then the
    central stage; the reference for the forked children."""
    cfg = Config()
    central = local if central is None else central
    reports = {b: run_local_engine(feeder, b, local.get(b), cfg) for b in placement.sensor_buses}
    model = build_central_model(partition(build_system(feeder), placement))
    xs = []
    tracker = CentralChangeTracker(model, cfg, sink=lambda ks, x: xs.extend(zip(ks, x)))
    records = []
    for released in group_frames(placement.sensor_buses,
                                 {b: (c.ks, c.vi) for b, c in central.items()}, BLOCK_FRAMES):
        records += tracker.step(fuse_frames(model, released))
    records += tracker.finish()
    log = fuse_reports([(str(b), r) for b, reps in sorted(reports.items()) for r in reps],
                       records)
    return reports, log, xs, (tracker.gaps, tracker.skipped)


def assert_same_as_serial(res, ref):
    reports, log, xs, counts = ref
    assert list(res.local_reports) == list(reports)
    assert repr(res.local_reports) == repr(reports)
    assert res.event_log.to_jsonl() == log.to_jsonl()
    assert [(k, repr(x)) for k, x in res.xs] == [(k, repr(x)) for k, x in xs]
    assert (res.gaps, res.skipped) == counts


def _slgf():
    scenario = Scenario.from_json(scenario_path("slgf").read_text())
    feeder = load_feeder(DATA / f"{scenario.feeder}.feeder")
    streams, _ = generate(scenario, feeder)
    return feeder, Placement(tuple(sorted(streams))), streams


def test_offline_run_with_tampered_uplink_same_as_serial():
    """The local engines read the sensors' own streams and the central stage
    the tampered uplink, with the engines in child processes as in one."""
    feeder, placement, streams = _slgf()
    central = apply_replay_attack(streams, 19, 300, 700, window=120)
    res = run_offline(feeder, placement, streams, central)
    ref = serial_offline(feeder, placement, streams, central)
    assert_same_as_serial(res, ref)
    assert ref[1].to_jsonl() != serial_offline(feeder, placement, streams)[1].to_jsonl()


def test_offline_run_raises_what_a_child_or_the_central_stage_raises(monkeypatch):
    """A sink that raises in a sensor's process, and a central stage that
    raises in the parent, both reach the caller, with no child left, also
    where a child is still busy (its sink sleeps)."""
    import time
    from gridwatch import pipeline
    feeder, placement, streams = _slgf()

    def sink(bus, block):
        if bus == 19:
            raise ValueError("sink failed")
        if bus == 31:
            time.sleep(30)

    with pytest.raises(ValueError, match="sink failed") as info:
        run_offline(feeder, placement, streams, derived=sink)
    assert any("in the local engine of bus 19" in n for n in info.value.__notes__)
    assert multiprocessing.active_children() == []

    def fuse_frames(model, released):
        raise ValueError("fusion failed")

    monkeypatch.setattr(pipeline, "fuse_frames", fuse_frames)
    with pytest.raises(ValueError, match="fusion failed"):
        run_offline(feeder, placement, streams, derived=lambda bus, block: time.sleep(30))
    assert multiprocessing.active_children() == []


def _after(delay, value):
    import time
    time.sleep(delay)
    return value


def test_forked_gives_results_in_job_order_and_joins_every_child():
    jobs = [(f"job {i}", partial(_after, delay, i)) for i, delay in enumerate([0.3, 0.0, 0.1])]
    with forked(jobs) as results:
        assert list(results) == [0, 1, 2]
    assert multiprocessing.active_children() == []


def test_forked_raises_when_a_child_dies_without_a_result():
    """A child that exits without sending raises in the parent, and a child
    still busy then is stopped."""
    jobs = [("job 0", partial(_after, 0.0, 0)), ("job 1", partial(os._exit, 3)),
            ("job 2", partial(_after, 60, 2))]
    with pytest.raises(RuntimeError, match="job 1 exited with code 3 before sending its result"):
        with forked(jobs) as results:
            list(results)
    assert multiprocessing.active_children() == []


def test_offline_run_builds_the_central_model_before_any_child(monkeypatch):
    """The central model's SVD runs while no local engine's child is alive,
    so the BLAS threads it wakes do not spin beside the children."""
    from gridwatch import pipeline
    feeder, placement, streams = _slgf()
    alive = []

    def build(part):
        alive.append(multiprocessing.active_children())
        return build_central_model(part)

    monkeypatch.setattr(pipeline, "build_central_model", build)
    res = run_offline(feeder, placement, {b: s[:50] for b, s in streams.items()})
    assert alive == [[]]
    assert sorted(res.local_reports) == list(placement.sensor_buses)


def test_offline_run_prints_what_was_buffered_once():
    """Text on a buffered stdout before run_offline appears once: a child
    exiting flushes its copy of the buffer, which must be empty."""
    code = """if 1:
        import sys
        from gridwatch.model import Placement, load_feeder
        from gridwatch.pipeline import run_offline
        from gridwatch.synth import Scenario, generate
        scenario = Scenario.from_json(open(sys.argv[1]).read())
        feeder = load_feeder(sys.argv[2])
        streams, _ = generate(scenario, feeder)
        print("buffered before run_offline")
        run_offline(feeder, Placement(scenario.sensors), {b: s[:50] for b, s in streams.items()})
        print("after run_offline")
    """
    src = str(DATA.parents[1])
    # stdout must be a buffered pipe: unbuffered, there is nothing to copy
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, str(scenario_path("quiet")),
                           str(DATA / "ieee34.feeder")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "buffered before run_offline\nafter run_offline\n"
