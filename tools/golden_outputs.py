"""Write the outputs of `simulate`, `analyze --derived` and `serve-central`
into one tree.

Run from the repo root:  python tools/golden_outputs.py OUTDIR

For every bundled scenario, and for `slgf` with a replay attack on bus 19
over k 300-700 (window 120), OUTDIR/<name>/streams holds what `simulate`
wrote and OUTDIR/<name>/out what `analyze --derived` wrote from it and
printed (`stdout.txt`, `stderr.txt`). OUTDIR/<name>/net holds what
`serve-central` wrote (`eventlog.jsonl`, `central_x.csv`) and printed
(`stdout.txt`, `stderr.txt`), fed over loopback by one
`transport.serve_local` per sensor, each replaying that sensor's own
stream CSV; the server and the senders run as threads of this process.
Paths in the printed text are relative to OUTDIR.

OUTDIR/bad_streams/<case> holds the `quiet` streams altered in one fixed
way (`BAD_STREAMS`: a malformed row, a non-finite row, an undecodable
byte, a file named `bus7_v2.csv`, a `bus07.csv` beside `bus7.csv`, a
`bus19.csv` with no valid row) and what `analyze` wrote from them, if
anything, and printed: `exit.txt` holds its exit code, or the type and
message of an exception that escaped `cli.main`.

OUTDIR/place holds one JSON file per placement solve (greedy ieee34 K=3,
greedy ieee123 with laterals reduced at K=4 and K=20, exhaustive ieee34
K=3): the solver, the `repr` of its objective, the buses, `evaluations`
and `eigensolves`, without the run time. OUTDIR/env.json records the numpy
version, the CPUs this process may use and the BLAS thread variables, on
which the last bits of the central outputs and of the objectives depend.

The tree uses the gridwatch of the checkout this script sits in, so a
change that must keep every output byte for byte, offline, networked or in
placement, is checked by running the script on both checkouts and
comparing the trees with `diff -r`.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import socket
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from gridwatch import cli, placement, synth  # noqa: E402
from gridwatch.model import build_system, load_feeder, reduce_laterals  # noqa: E402
from gridwatch.transport import serve_local  # noqa: E402

REPLAY = {"kind": "replay_attack", "bus": 19, "start_k": 300, "end_k": 700,
          "magnitude": 120}
# file name -> (solver, feeder, reduce laterals, K)
PLACEMENTS = {"greedy_ieee34_k3": ("greedy", "ieee34", False, 3),
              "greedy_ieee123_reduced_k4": ("greedy", "ieee123", True, 4),
              "greedy_ieee123_reduced_k20": ("greedy", "ieee123", True, 20),
              "exhaustive_ieee34_k3": ("exhaustive", "ieee34", False, 3)}


def _edit_field(path: Path, row: int, field: int, edit) -> None:
    """`path` with field `field` of line `row` replaced by `edit` of its bytes."""
    lines = path.read_bytes().split(b"\n")
    fields = lines[row].split(b",")
    fields[field] = edit(fields[field])
    lines[row] = b",".join(fields)
    path.write_bytes(b"\n".join(lines))


def _copy(streams: Path, name: str) -> None:
    (streams / name).write_bytes((streams / "bus7.csv").read_bytes())


# case -> how it alters a copy of the quiet scenario's streams
BAD_STREAMS = {
    "malformed_row": lambda d: _edit_field(d / "bus7.csv", 100, 2, lambda f: b"not_a_number"),
    "non_finite_row": lambda d: _edit_field(d / "bus7.csv", 100, 2, lambda f: b"nan"),
    "undecodable_byte": lambda d: _edit_field(d / "bus19.csv", 5, 3, lambda f: b"\xff" + f),
    "bus7_v2": lambda d: _copy(d, "bus7_v2.csv"),
    "bus07": lambda d: _copy(d, "bus07.csv"),
    "no_valid_rows": lambda d: (d / "bus19.csv").write_text(synth.CSV_HEADER + "\n1,t,x\n"),
}


def capture(argv: list[str]) -> tuple[int | str, str, str]:
    """`cli.main(argv)`'s exit code, or the exception that escaped it as
    'type: message', and what it printed on stdout and on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:
            code = f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def run(name: str, scenario: Path) -> None:
    streams, out = Path(name, "streams"), Path(name, "out")
    if code := cli.main(["simulate", "--scenario", str(scenario), "--out", str(streams)]):
        sys.exit(f"{name}: gridwatch simulate exited {code}")
    code, stdout, stderr = capture(["analyze", "--streams", str(streams), "--out", str(out),
                                    "--derived"])
    if code:
        sys.exit(f"{name}: gridwatch analyze exited {code}\n{stderr}")
    (out / "stdout.txt").write_text(stdout)
    (out / "stderr.txt").write_text(stderr)
    run_net(name, streams)


def run_bad_streams(quiet: Path) -> None:
    for case, alter in BAD_STREAMS.items():
        streams = Path("bad_streams", case, "streams")
        shutil.copytree(quiet, streams)
        alter(streams)
        code, stdout, stderr = capture(["analyze", "--streams", str(streams),
                                        "--out", str(streams.parent / "out")])
        (streams.parent / "exit.txt").write_text(f"{code}\n")
        (streams.parent / "stdout.txt").write_text(stdout)
        (streams.parent / "stderr.txt").write_text(stderr)


def run_net(name: str, streams: Path) -> None:
    """`serve-central` in a thread, fed by one sender thread per sensor."""
    sc = synth.Scenario.from_json((streams / "scenario.json").read_text())
    feeder = load_feeder(cli.find_feeder(sc.feeder))
    net = Path(name, "net")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    argv = ["serve-central", "--feeder", sc.feeder, "--port", str(port), "--out", str(net),
            "--placement", ",".join(map(str, sc.sensors)), "--epoch", sc.start_time]
    box = {}
    central = threading.Thread(target=lambda: box.update(code=cli.main(argv)))
    senders = [threading.Thread(target=serve_local, args=(
        synth.read_stream_csv(streams / f"bus{b}.csv")[0], b, ("127.0.0.1", port), feeder))
        for b in sc.sensors]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for t in (central, *senders):
            t.start()
        for t in (central, *senders):
            t.join()
    if box.get("code"):
        sys.exit(f"{name}: gridwatch serve-central exited {box.get('code')}")
    (net / "stdout.txt").write_text(out.getvalue())
    (net / "stderr.txt").write_text(err.getvalue())


def run_place() -> None:
    solvers = {"greedy": placement.greedy_place, "exhaustive": placement.exhaustive_place}
    Path("place").mkdir(exist_ok=True)
    for name, (solver, feeder_name, reduce, k) in PLACEMENTS.items():
        feeder = load_feeder(cli.find_feeder(feeder_name))
        res = solvers[solver](build_system(reduce_laterals(feeder) if reduce else feeder), k)
        doc = {"solver": res.solver, "objective": repr(res.objective),
               "buses": list(res.placement.sensor_buses), "evaluations": res.evaluations,
               "eigensolves": res.eigensolves}
        Path("place", f"{name}.json").write_text(json.dumps(doc) + "\n")


def write_env() -> None:
    doc = {"numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
           **{v: os.environ.get(v) for v in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    Path("env.json").write_text(json.dumps(doc) + "\n")


def main(argv: list[str]) -> None:
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.exit("usage: python tools/golden_outputs.py OUTDIR")
    Path(argv[0]).mkdir(parents=True, exist_ok=True)
    os.chdir(argv[0])
    for scenario in sorted((cli.DATA_DIR / "scenarios").glob("*.json")):
        run(scenario.stem, scenario)
    doc = json.loads((cli.DATA_DIR / "scenarios" / "slgf.json").read_text())
    doc["events"] = sorted(doc["events"] + [REPLAY], key=lambda e: e["start_k"])
    scenario = Path("slgf_replay.json")
    scenario.write_text(json.dumps(doc))
    run("slgf_replay", scenario)
    run_bad_streams(Path("quiet", "streams"))
    run_place()
    write_env()


if __name__ == "__main__":
    main(sys.argv[1:])
