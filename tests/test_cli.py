import json
import multiprocessing
import time

import pytest

from gridwatch.cli import find_feeder, main
from gridwatch.config import Config, ConfigError, load_config


def test_place_greedy_table(capsys):
    rc = main(["place", "--feeder", "ieee34", "--k", "3", "--solver", "greedy"])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[0])
    assert payload["buses"] == [2, 23, 29]
    assert 0 < payload["eigensolves"] <= payload["evaluations"] == 99
    assert "Cost" in out and "Run Time" in out


@pytest.mark.parametrize("solver", ["greedy", "exhaustive", "random"])
def test_place_k_outside_candidates_is_usage_error(capsys, solver):
    rc = main(["place", "--feeder", "ieee34", "--k", "40", "--solver", solver])
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: k=40 outside candidate set of 34\n"


def test_place_random_seeded(capsys):
    rc = main(["place", "--feeder", "ieee34", "--k", "3", "--solver", "random",
               "--seed", "5"])
    assert rc == 0
    a = json.loads(capsys.readouterr().out.splitlines()[0])
    main(["place", "--feeder", "ieee34", "--k", "3", "--solver", "random",
          "--seed", "5"])
    b = json.loads(capsys.readouterr().out.splitlines()[0])
    assert a["buses"] == b["buses"]


def test_usage_error_exit_code():
    assert main(["place", "--feeder", "ieee34"]) == 1
    assert main(["no-such-command"]) == 1


def test_missing_feeder_is_data_error(capsys):
    assert main(["place", "--feeder", "nope", "--k", "2"]) == 3


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[detector]\nh = -1\n")
    rc = main(["--config", str(bad), "place", "--feeder", "ieee34", "--k", "2"])
    assert rc == 2


def test_simulate_analyze_report_quiet(tmp_path, capsys):
    streams = tmp_path / "streams"
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", "quiet", "--out", str(streams)]) == 0
    assert main(["analyze", "--streams", str(streams), "--out", str(out)]) == 0
    log = (out / "eventlog.jsonl").read_text()
    assert log == ""  # no events, no incidents
    assert (out / "central_x.csv").read_text().startswith("k,x\n")


def test_analyze_deterministic_bytes(tmp_path):
    streams = tmp_path / "streams"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    a, b = tmp_path / "a", tmp_path / "b"
    main(["analyze", "--streams", str(streams), "--out", str(a)])
    main(["analyze", "--streams", str(streams), "--out", str(b)])
    assert (a / "eventlog.jsonl").read_bytes() == (b / "eventlog.jsonl").read_bytes()
    assert (a / "central_x.csv").read_bytes() == (b / "central_x.csv").read_bytes()


def _quiet_streams_with_bad_row(tmp_path, v_a_re="not_a_number"):
    """quiet scenario streams whose bus7.csv has one malformed row at k=100."""
    streams = tmp_path / "streams"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    path = streams / "bus7.csv"
    lines = path.read_text().splitlines()
    i = next(n for n, ln in enumerate(lines) if ln.startswith("100,"))
    lines[i] = lines[i].replace(lines[i].split(",")[2], v_a_re, 1)
    path.write_text("\n".join(lines) + "\n")
    return streams, path


def test_analyze_warns_on_malformed_rows(tmp_path, capsys):
    streams, bad = _quiet_streams_with_bad_row(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["analyze", "--streams", str(streams), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: skipped 1 malformed row(s) in {bad}\n"
    assert captured.out.startswith("0 log entries, 0 incident(s), 0 gap(s); wrote ")


def test_analyze_skips_non_finite_rows(tmp_path, capsys):
    streams, bad = _quiet_streams_with_bad_row(tmp_path, v_a_re="nan")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["analyze", "--streams", str(streams), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: skipped 1 malformed row(s) in {bad}\n"
    assert captured.out.startswith("0 log entries, 0 incident(s), 0 gap(s); wrote ")


@pytest.mark.parametrize("name, error", [
    ("bus7_v2.csv", "bus7_v2.csv: not a stream name; streams are named bus<N>.csv"),
    ("bus07.csv", "bus7.csv: a second stream for bus 7, after bus07.csv"),
])
def test_analyze_rejects_stream_file_names(tmp_path, capsys, name, error):
    """bus7_v2.csv is not sensor 72, and bus07.csv does not replace bus7.csv."""
    streams = tmp_path / "streams"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    (streams / name).write_text((streams / "bus7.csv").read_text())
    capsys.readouterr()
    assert main(["analyze", "--streams", str(streams), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: {streams / error}"]
    assert not (tmp_path / "out").exists()


def test_analyze_rejects_stream_without_valid_rows(tmp_path, capsys):
    """A sensor whose file holds no valid row does not drop out of the
    default placement unnoticed."""
    streams, _ = _quiet_streams_with_bad_row(tmp_path)
    path = streams / "bus19.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n1,t,x\n")
    capsys.readouterr()
    assert main(["analyze", "--streams", str(streams), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"data error: {path}: no valid rows"


def _insert_byte(path, row, field, byte=b"\xff"):
    """`path` with `byte` put at the start of field `field` of line `row`."""
    lines = path.read_bytes().split(b"\n")
    fields = lines[row].split(b",")
    fields[field] = byte + fields[field]
    lines[row] = b",".join(fields)
    path.write_bytes(b"\n".join(lines))


def test_analyze_skips_rows_with_undecodable_bytes(tmp_path, capsys):
    """A byte that does not decode makes its row malformed, in a phasor part
    as in a line id, which no writer could have written."""
    streams = tmp_path / "streams"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    path = streams / "bus19.csv"
    _insert_byte(path, 5, 3)   # v_a_im
    _insert_byte(path, 9, 8)   # line_id
    capsys.readouterr()
    assert main(["analyze", "--streams", str(streams), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: skipped 2 malformed row(s) in {path}\n"
    assert captured.out.startswith("0 log entries, 0 incident(s), 0 gap(s); wrote ")


def test_analyze_refuses_a_header_with_an_undecodable_byte(tmp_path, capsys):
    streams = tmp_path / "streams"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    path = streams / "bus19.csv"
    _insert_byte(path, 0, 8)
    capsys.readouterr()
    assert main(["analyze", "--streams", str(streams), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"data error: {path}: unexpected header\n"


def test_serve_local_warns_on_malformed_rows(tmp_path, capsys):
    import socket
    import threading

    streams, bad = _quiet_streams_with_bad_row(tmp_path)
    capsys.readouterr()
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def sink():
            conn, _ = server.accept()
            with conn:
                while conn.recv(65536):
                    pass

        t = threading.Thread(target=sink)
        t.start()
        rc = main(["serve-local", "--feeder", "ieee34", "--sensor", "7",
                   "--stream", str(bad), "--port", str(server.getsockname()[1])])
        t.join(timeout=30.0)
        assert not t.is_alive()
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: skipped 1 malformed row(s) in {bad}\n"
    assert captured.out.startswith("sent 480 frames, ")


# ---------------------------------------------------------------- one reader per file

def _serial_read_streams(directory):
    """`_read_streams` as a serial read: each file in file-name order is
    read, warned about and checked before the next is opened."""
    from gridwatch.cli import _read_stream
    from gridwatch.model import FeederError
    streams, names = {}, {}
    for path in sorted(directory.glob("bus*.csv")):
        stream = _read_stream(path)
        if stream.bus < 0:
            raise FeederError(f"{path}: not a stream name; streams are named bus<N>.csv")
        if stream.bus in streams:
            raise FeederError(f"{path}: a second stream for bus {stream.bus}, "
                              f"after {names[stream.bus]}")
        if not len(stream):
            raise FeederError(f"{path}: no valid rows")
        streams[stream.bus], names[stream.bus] = stream, path.name
    if not streams:
        raise FeederError(f"no bus*.csv streams under {directory}")
    return streams


def _bad_name_early_bad_header_later(streams):
    (streams / "bus0x.csv").write_text((streams / "bus7.csv").read_text())
    _insert_byte(streams / "bus31.csv", 0, 0, b"x")


def _bad_header_early_bad_name_later(streams):
    _insert_byte(streams / "bus19.csv", 0, 0, b"x")
    (streams / "bus7_v2.csv").write_text((streams / "bus7.csv").read_text())


def _malformed_rows_in_two_files(streams):
    _insert_byte(streams / "bus7.csv", 100, 2, b"x")
    _insert_byte(streams / "bus31.csv", 7, 4, b"x")
    _insert_byte(streams / "bus31.csv", 8, 5, b"\xff")


def _bus07_next_to_bus7(streams):
    (streams / "bus07.csv").write_text((streams / "bus7.csv").read_text())
    _insert_byte(streams / "bus07.csv", 3, 2, b"x")
    _insert_byte(streams / "bus31.csv", 3, 2, b"x")


@pytest.mark.parametrize("fault", [_bad_name_early_bad_header_later,
                                   _bad_header_early_bad_name_later,
                                   _malformed_rows_in_two_files, _bus07_next_to_bus7])
def test_analyze_reads_in_parallel_as_it_would_serially(tmp_path, capsys, monkeypatch, fault):
    """With several faults at once, the forked readers print the lines and
    give the exit code of a serial read in file-name order, and leave no
    child either way."""
    from gridwatch import cli
    streams = tmp_path / "streams"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    fault(streams)
    argv = ["analyze", "--streams", str(streams), "--out", str(tmp_path / "out")]
    capsys.readouterr()
    forked = main(argv), capsys.readouterr()
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(cli, "_read_streams", _serial_read_streams)
    serial = main(argv), capsys.readouterr()
    assert forked == serial
    assert serial[1].err


def test_analyze_stops_the_readers_of_later_files_on_an_error(tmp_path, capsys, monkeypatch):
    """An early file's error is raised while a later file is still being
    parsed, and that file's reader does not outlive it."""
    from gridwatch import synth
    streams = tmp_path / "streams"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    (streams / "bus0x.csv").write_text((streams / "bus7.csv").read_text())
    read = synth.read_stream_csv

    def slow_read(path):
        if path.name == "bus7.csv":
            time.sleep(60)
        return read(path)

    monkeypatch.setattr(synth, "read_stream_csv", slow_read)
    capsys.readouterr()
    t0 = time.monotonic()
    assert main(["analyze", "--streams", str(streams), "--out", str(tmp_path / "out")]) == 3
    assert time.monotonic() - t0 < 30
    assert capsys.readouterr().err == (f"data error: {streams / 'bus0x.csv'}: not a stream "
                                       "name; streams are named bus<N>.csv\n")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", ["fault_at_sensor", "load_loss", "quiet", "slgf"])
def test_parallel_read_returns_the_columns_of_a_read_per_file(tmp_path, name):
    from gridwatch.cli import _read_streams
    from gridwatch.synth import read_stream_csv
    streams = tmp_path / "streams"
    main(["simulate", "--scenario", name, "--out", str(streams)])
    got = _read_streams(streams)
    want = {}
    for path in sorted(streams.glob("bus*.csv")):
        stream = read_stream_csv(path)[0]
        want[stream.bus] = stream
    assert list(got) == list(want)
    for bus, a in got.items():
        b = want[bus]
        assert a.bus == b.bus
        for x, y in [(a.ks, b.ks), (a.vi, b.vi)] + [
                (u, v) for lid in b.lines for u, v in zip(a.lines[lid], b.lines[lid])]:
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
        assert list(a.lines) == list(b.lines)
    assert multiprocessing.active_children() == []


def test_analyze_derived_metrics(tmp_path):
    streams = tmp_path / "streams"
    out = tmp_path / "out"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    assert main(["analyze", "--streams", str(streams), "--out", str(out),
                 "--derived"]) == 0
    derived = out / "derived_bus7.csv"
    assert derived.exists()
    assert derived.read_text().splitlines()[0].startswith("k,line,vmag_a")


def test_analyze_derived_sensor_without_stream(tmp_path):
    # the quiet scenario streams buses 7, 19 and 31 only
    streams = tmp_path / "streams"
    out = tmp_path / "out"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    assert not (streams / "bus33.csv").exists()
    assert main(["analyze", "--streams", str(streams), "--out", str(out),
                 "--placement", "7,19,31,33", "--derived"]) == 0
    header = (out / "derived_bus7.csv").read_text().splitlines()[0]
    assert (out / "derived_bus33.csv").read_text() == header + "\n"


@pytest.fixture(scope="module")
def long_streams(tmp_path_factory):
    """Quiet streams of 1,200 frames, more than one engine block, with line
    6-7 missing from bus 7 at a few frames, two of them straddling the cut."""
    from dataclasses import replace
    from conftest import DATA, edit_frame
    from gridwatch.model import load_feeder
    from gridwatch.synth import Scenario, generate, write_streams
    sc = Scenario.from_json((DATA / "scenarios" / "quiet.json").read_text())
    sc = replace(sc, duration_s=10.0)
    streams, truth = generate(sc, load_feeder(DATA / "ieee34.feeder"))
    assert len(streams[7]) == 1200
    for j in (5, 1023, 1024, 1100):
        i_lines = dict(list(streams[7])[j].i_lines)
        del i_lines["6-7"]
        streams[7] = edit_frame(streams[7], j, i_lines=i_lines)
    path = tmp_path_factory.mktemp("long") / "streams"
    write_streams(path, streams, sc, truth)
    return path


def _derived_oracle(feeder, bus, stream) -> str:
    """derived_bus<N>.csv as a second engine over the whole stream makes it."""
    from gridwatch.analytics import LocalEngine
    from gridwatch.pipeline import blocks, line_ratings_at
    eng = LocalEngine(bus, line_ratings_at(feeder, bus))
    rows = ["k,line,vmag_a,vmag_b,vmag_c,p_a,q_a,imag_a,beta_hat,qss_residual"]
    for block in blocks(stream):
        d = eng.derive(block)
        vmag, beta = d.vmag.tolist(), d.beta_hat.tolist()
        lines = []
        for lid, c in d.lines.items():
            resid = dict(zip(c.qss_rows, c.qss_residual.tolist()))
            for j, k, p, q, imag in zip(c.rows, c.ks, c.p[:, 0].tolist(),
                                        c.q[:, 0].tolist(), c.imag[:, 0].tolist()):
                r = resid.get(j)
                lines.append((j, lid, f"{k},{lid},{vmag[j][0]!r},{vmag[j][1]!r},"
                                      f"{vmag[j][2]!r},{p!r},{q!r},{imag!r},{beta[j]!r},"
                                      f"{'' if r is None else repr(r)}"))
        rows += [text for *_, text in sorted(lines)]
    return "\n".join(rows) + "\n"


def test_analyze_derived_derives_each_block_once(long_streams, tmp_path, monkeypatch):
    from gridwatch.analytics import LocalEngine
    # the engines run in child processes: each call appends a line to a file
    log = tmp_path / "derive_calls.txt"
    derive = LocalEngine.derive

    def counted(self, block):
        with open(log, "a") as f:
            f.write(f"{self.bus} {int(block.ks[0])}\n")
        return derive(self, block)

    monkeypatch.setattr(LocalEngine, "derive", counted)
    assert main(["analyze", "--streams", str(long_streams), "--out", str(tmp_path / "out"),
                 "--derived"]) == 0
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert sorted(calls) == [(bus, k) for bus in (7, 19, 31) for k in (0, 1024)]


def test_analyze_derived_matches_second_engine(long_streams, tmp_path):
    from gridwatch.model import load_feeder
    from gridwatch.synth import read_stream_csv
    out = tmp_path / "out"
    assert main(["analyze", "--streams", str(long_streams), "--out", str(out),
                 "--derived"]) == 0
    feeder = load_feeder(find_feeder("ieee34"))
    for bus in (7, 19, 31):
        stream, skipped = read_stream_csv(long_streams / f"bus{bus}.csv")
        assert skipped == 0
        text = (out / f"derived_bus{bus}.csv").read_text()
        assert text == _derived_oracle(feeder, bus, stream)
    rows = (out / "derived_bus7.csv").read_text().splitlines()[1:]
    # one row per frame and incident line; 6-7 is missing at four frames
    assert len(rows) == 2 * 1200 - 4
    assert [r.split(",")[:2] for r in rows[:3]] == [["0", "6-7"], ["0", "7-8"], ["1", "6-7"]]
    assert rows[0].endswith(",") and not rows[-1].endswith(",")


def test_analyze_derived_bad_placement_writes_nothing(long_streams, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--streams", str(long_streams), "--out", str(out),
                 "--placement", "7,999", "--derived"]) == 3
    assert "placement bus 999" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- config file

def test_config_defaults_valid():
    Config()


def test_config_load_and_types(tmp_path):
    path = tmp_path / "gw.cfg"
    path.write_text("""
# comment
[detector]
h = 6.5
warmup = 100

[segmentation]
t1 = 60

[window]
m = 24
""")
    cfg = load_config(path)
    assert cfg.h == 6.5 and cfg.warmup == 100
    assert cfg.t1 == 60 and cfg.m == 24
    assert cfg.nu == 0.5  # untouched default


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "gw.cfg"
    for text in ("[detector]\nmystery = 3\n", "[voltage]\ntable_max = 1.8\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "gw.cfg"
    path.write_text("[detector]\nh = fast\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_config_range_validation(tmp_path):
    path = tmp_path / "gw.cfg"
    path.write_text("[detector]\nlambda_forget = 1.5\n")
    with pytest.raises(ConfigError, match="lambda_forget"):
        load_config(path)


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_config_rejects_a_nan_or_nonpositive_sustained_time(tmp_path, value):
    path = tmp_path / "gw.cfg"
    path.write_text(f"[voltage]\nsustained_s = {value}\n")
    with pytest.raises(ConfigError, match="v_sustained_s"):
        load_config(path)


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_config_rejects_a_nan_or_nonpositive_variance_ratio(tmp_path, value):
    path = tmp_path / "gw.cfg"
    path.write_text(f"[trend]\nvariance_ratio = {value}\n")
    with pytest.raises(ConfigError, match="variance_ratio"):
        load_config(path)


@pytest.mark.parametrize("value", ["nan", "-1e-4"])
def test_config_rejects_a_nan_or_negative_slope_min(tmp_path, value):
    path = tmp_path / "gw.cfg"
    path.write_text(f"[trend]\nslope_min = {value}\n")
    with pytest.raises(ConfigError, match="slope_min"):
        load_config(path)


def test_simulate_attack_scenario_writes_central_view(tmp_path):
    import numpy as np
    from conftest import DATA
    from gridwatch.synth import Scenario
    # derive a small attacked scenario from the bundled quiet one
    sc = Scenario.from_json((DATA / "scenarios" / "quiet.json").read_text())
    doc = json.loads(sc.to_json())
    doc["duration_s"] = 3.0
    doc["events"] = [{"kind": "replay_attack", "bus": 7, "start_k": 200,
                      "end_k": 300, "magnitude": 120}]
    path = tmp_path / "attacked.json"
    path.write_text(json.dumps(doc))

    streams = tmp_path / "streams"
    assert main(["simulate", "--scenario", str(path), "--out", str(streams)]) == 0
    assert (streams / "central" / "bus7.csv").exists()
    # local view and central view differ inside the attack window only
    # (two incident lines -> two rows per sample; window [200, 300) sits at
    # rows [401, 601))
    local = (streams / "bus7.csv").read_text().splitlines()
    central = (streams / "central" / "bus7.csv").read_text().splitlines()
    assert local[1:400] == central[1:400]
    assert local[401:601] != central[401:601]
    assert local[601:] == central[601:]

    out = tmp_path / "out"
    assert main(["analyze", "--streams", str(streams), "--out", str(out)]) == 0


def test_serve_commands_roundtrip(tmp_path):
    import socket
    import threading
    from conftest import DATA

    streams = tmp_path / "streams"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = str(probe.getsockname()[1])
    out = tmp_path / "central_out"
    rc_box = {}

    def central():
        rc_box["central"] = main(["serve-central", "--feeder", "ieee34",
                                  "--placement", "7,19,31", "--port", port,
                                  "--out", str(out), "--timeout", "60"])

    t = threading.Thread(target=central)
    t.start()
    time_limit = 30.0
    import time as _t
    _t.sleep(0.3)
    locals_ = []
    for bus in (7, 19, 31):
        th = threading.Thread(target=main, args=(
            ["serve-local", "--feeder", "ieee34", "--sensor", str(bus),
             "--stream", str(streams / f"bus{bus}.csv"), "--port", port],))
        th.start()
        locals_.append(th)
    for th in locals_:
        th.join(timeout=time_limit)
    t.join(timeout=time_limit)
    assert rc_box["central"] == 0
    assert (out / "eventlog.jsonl").exists()
    # quiet scenario: the networked run is silent too
    assert (out / "eventlog.jsonl").read_text() == ""


def _serve_central_with(tmp_path, send19, timeout="60"):
    """serve-central for sensors 7 and 19 of the quiet scenario: `send19`
    plays sensor 19's part from its frames, then sensor 7 streams to Bye.
    Returns the exit code and sensor 19's frame count."""
    import socket
    import threading
    from gridwatch.model import load_feeder
    from gridwatch.synth import read_stream_csv
    from gridwatch.transport import serve_local

    streams = tmp_path / "streams"
    main(["simulate", "--scenario", "quiet", "--out", str(streams)])
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    rc_box = {}
    t = threading.Thread(target=lambda: rc_box.update(central=main(
        ["serve-central", "--feeder", "ieee34", "--placement", "7,19",
         "--port", str(port), "--out", str(tmp_path / "out"), "--timeout", timeout])))
    t.start()
    frames19 = list(read_stream_csv(streams / "bus19.csv")[0])
    send19(port, frames19)
    serve_local(read_stream_csv(streams / "bus7.csv")[0], 7, ("127.0.0.1", port),
                load_feeder(find_feeder("ieee34")))
    t.join(timeout=30.0)
    assert not t.is_alive()
    return rc_box["central"], len(frames19)


def test_serve_central_warns_on_early_bye(tmp_path, capsys):
    """A sensor that says Bye early leaves samples fused without it: the run
    says so on stderr, and its stdout summary line keeps its form."""
    import re
    from conftest import raw_sensor_session

    rc, n19 = _serve_central_with(
        tmp_path, lambda port, frames: raw_sensor_session(port, 19, frames[:10], bye=True))
    assert rc == 0
    captured = capsys.readouterr()
    assert re.search(r"^sessions=2 gaps=0 rejected=0; wrote ", captured.out, re.M)
    stale = re.search(r"^warning: .*stale_releases=(\d+)", captured.err, re.M)
    assert stale and int(stale.group(1)) == n19 - 10
    assert re.search(r"^warning: .* unfinished=0 protocol_errors=0$", captured.err, re.M)


def test_serve_central_warns_on_unfinished_sensor(tmp_path, capsys):
    """A sensor that sends every frame but closes without Bye is still
    expected back, so the run ends on its timeout: the warning says that one
    sensor never finished, though no sample was fused without it."""
    import re
    from conftest import raw_sensor_session

    rc, _ = _serve_central_with(
        tmp_path, lambda port, frames: raw_sensor_session(port, 19, frames, bye=False),
        timeout="2")
    assert rc == 0
    captured = capsys.readouterr()
    assert re.search(r"^sessions=2 gaps=0 rejected=0; wrote ", captured.out, re.M)
    assert re.search(r"^warning: central fusion incomplete: stale_releases=0 late=0 "
                     r"central_gaps=0 skipped=0 unfinished=1 protocol_errors=0$",
                     captured.err, re.M)


def test_serve_central_counts_protocol_errors(tmp_path, capsys):
    """A session that ends on a corrupted frame counts as a protocol error:
    the sensor comes back on a new session and finishes, and the warning
    names the one error though every sample was fused complete."""
    import re
    from conftest import connect_when_listening, raw_sensor_session
    from gridwatch.transport import FRAME, HELLO, Message, encode

    def send19(port, frames):
        with connect_when_listening(port) as conn:
            conn.sendall(encode(Message(kind=HELLO, sensor=19, k=0, info={"sensor": 19})))
            for f in frames[:10]:
                conn.sendall(encode(Message(kind=FRAME, sensor=19, k=f.k, frame=f)))
            bad = bytearray(encode(Message(kind=FRAME, sensor=19, k=10, frame=frames[10])))
            bad[20] ^= 0xFF
            conn.sendall(bad)
            try:
                conn.recv(1)   # returns once the central has dropped the session
            except ConnectionResetError:
                pass
        raw_sensor_session(port, 19, frames, bye=True)

    rc, _ = _serve_central_with(tmp_path, send19)
    assert rc == 0
    captured = capsys.readouterr()
    assert re.search(r"^sessions=2 gaps=0 rejected=0; wrote ", captured.out, re.M)
    assert re.search(r"^warning: central fusion incomplete: stale_releases=0 late=0 "
                     r"central_gaps=0 skipped=0 unfinished=0 protocol_errors=1$",
                     captured.err, re.M)


def test_serve_central_counts_non_finite_sample(tmp_path, capsys):
    """A frame of NaNs is skipped and counted, gives no central_x.csv row,
    and leaves the detector running."""
    import re
    import numpy as np
    from conftest import raw_sensor_session
    from gridwatch.analytics import PhasorFrame

    def send19(port, frames):
        f = frames[10]
        nan3 = np.full(3, complex(np.nan, np.nan))
        frames = list(frames)
        frames[10] = PhasorFrame(k=f.k, bus=f.bus, v=nan3,
                                 i_lines={lid: nan3 for lid in f.i_lines})
        raw_sensor_session(port, 19, frames, bye=True)

    rc, n19 = _serve_central_with(tmp_path, send19)
    assert rc == 0
    captured = capsys.readouterr()
    assert re.search(r"^warning: central fusion incomplete: stale_releases=0 late=0 "
                     r"central_gaps=0 skipped=1 unfinished=0 protocol_errors=0$",
                     captured.err, re.M)
    rows = (tmp_path / "out" / "central_x.csv").read_text().splitlines()
    assert rows[0] == "k,x" and len(rows) == n19
    assert "10" not in [r.split(",")[0] for r in rows] and "nan" not in "".join(rows)


def test_serve_central_counts_opposite_infinities(tmp_path, capsys):
    """A frame whose line currents are +inf and -inf sums to NaN in the
    batch reader without a numpy warning (warnings are errors in this
    suite); the sample is skipped and counted."""
    import re
    import numpy as np
    from conftest import raw_sensor_session
    from gridwatch.analytics import PhasorFrame

    def send19(port, frames):
        f = frames[10]
        inf = np.full(3, complex(np.inf, np.inf))
        lines = sorted(f.i_lines)
        frames = list(frames)
        frames[10] = PhasorFrame(k=f.k, bus=f.bus, v=f.v,
                                 i_lines={lines[0]: inf, lines[1]: -inf})
        raw_sensor_session(port, 19, frames, bye=True)

    rc, n19 = _serve_central_with(tmp_path, send19)
    assert rc == 0
    captured = capsys.readouterr()
    assert re.search(r"^warning: central fusion incomplete: stale_releases=0 late=0 "
                     r"central_gaps=0 skipped=1 unfinished=0 protocol_errors=0$",
                     captured.err, re.M)
    assert "RuntimeWarning" not in captured.err
    rows = (tmp_path / "out" / "central_x.csv").read_text().splitlines()
    assert len(rows) == n19 and "10" not in [r.split(",")[0] for r in rows]
