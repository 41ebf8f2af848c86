"""The process that does the program's work for `analyze` and `place`.

It runs apart from the input generation so that its peak RSS is the
program's. It times its set-up several times, then repeats whole operations
until `--seconds` have passed, and prints one JSON line with the timings,
the outputs the benchmark checks and, with `--trace`, the span summary.

    python3 perfbench/worker.py analyze --streams DIR --out DIR --seconds S
    python3 perfbench/worker.py place --k K --seconds S
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import load_gridwatch, x_csv
from inputs import PLACE_FEEDER
from spans import Tracer, install_local, install_placement

ANALYZE_SETUPS = 3
PLACE_SETUPS = 20


def analyze(gw, args, tracer) -> dict:
    indir = Path(args.streams)
    setups = []
    for _ in range(ANALYZE_SETUPS):
        streams = None   # hold one copy of the streams at a time, as the CLI does
        t0 = time.perf_counter()
        scenario = gw.synth.Scenario.from_json((indir / "scenario.json").read_text())
        feeder = gw.model.load_feeder(gw.cli.find_feeder(scenario.feeder))
        streams = gw.cli._read_streams(indir)
        setups.append(time.perf_counter() - t0)
        if tracer:
            tracer.count("setups")
    placement = gw.model.Placement(tuple(sorted(streams)))

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        out = Path(args.out) / f"pass{len(passes)}"
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        # what `gridwatch analyze` does after reading its inputs
        res = gw.pipeline.run_offline(feeder, placement, streams)
        (out / "eventlog.jsonl").write_text(
            res.event_log.to_jsonl(epoch=scenario.start_time,
                                   sample_rate=scenario.sample_rate))
        (out / "central_x.csv").write_text(x_csv(res.xs))
        passes.append(time.perf_counter() - t0)
        if tracer:
            tracer.count("passes")
    return {"setup_s": setups, "op_s": passes,
            "frames": sum(len(f) for f in streams.values())}


def place(gw, args, tracer) -> dict:
    path = gw.cli.find_feeder(PLACE_FEEDER)
    setups = []
    for _ in range(PLACE_SETUPS):
        t0 = time.perf_counter()
        feeder = gw.model.reduce_laterals(gw.model.load_feeder(path))
        system = gw.model.build_system(feeder)
        setups.append(time.perf_counter() - t0)
        if tracer:
            tracer.count("setups")

    solves = []
    start = time.perf_counter()
    while not solves or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        res = gw.placement.greedy_place(system, args.k)
        dt = time.perf_counter() - t0
        solves.append({"buses": list(res.placement.sensor_buses),
                       "objective": res.objective, "evaluations": res.evaluations,
                       "seconds": dt})
        if tracer:
            tracer.count("solves")
    return {"setup_s": setups, "op_s": [s["seconds"] for s in solves], "solves": solves}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=("analyze", "place"))
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", help="write spans to this CSV")
    p.add_argument("--streams")
    p.add_argument("--out")
    p.add_argument("--k", type=int)
    args = p.parse_args()

    gw = load_gridwatch()
    tracer = None
    if args.trace:
        tracer = Tracer()
        (install_local if args.workload == "analyze" else install_placement)(tracer, gw)
    result = (analyze if args.workload == "analyze" else place)(gw, args, tracer)
    result["trace"] = tracer.dump(args.trace) if tracer else None
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
