"""Write the outputs of `simulate`, `analyze --derived` and `serve-central`
into one tree.

Run from the repo root:  python tools/golden_outputs.py OUTDIR

For every bundled scenario, and for `slgf` with a replay attack on bus 19
over k 300-700 (window 120), OUTDIR/<name>/streams holds what `simulate`
wrote and OUTDIR/<name>/out what `analyze --derived` wrote from it.
OUTDIR/<name>/net holds what `serve-central` wrote (`eventlog.jsonl`,
`central_x.csv`) and printed (`stdout.txt`, `stderr.txt`), fed over
loopback by one `transport.serve_local` per sensor, each replaying that
sensor's own stream CSV; the server and the senders run as threads of
this process. Paths in the printed text are relative to OUTDIR.

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


def run(name: str, scenario: Path) -> None:
    streams, out = Path(name, "streams"), Path(name, "out")
    for argv in (["simulate", "--scenario", str(scenario), "--out", str(streams)],
                 ["analyze", "--streams", str(streams), "--out", str(out), "--derived"]):
        code = cli.main(argv)
        if code:
            sys.exit(f"{name}: gridwatch {argv[0]} exited {code}")
    run_net(name, streams)


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
    run_place()
    write_env()


if __name__ == "__main__":
    main(sys.argv[1:])
