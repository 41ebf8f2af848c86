"""gridwatch's benchmark: three workloads, each stressing one layer.

    python3 perfbench/run.py --workload analyze|central_replay|place \
        --seed N --seconds S --trace 0|1

- analyze: the offline hierarchy (`pipeline.run_offline` plus the two
  output files `gridwatch analyze` writes) over a 100 s ieee34 scenario
  with three sensors and a fixed noise realisation.
- central_replay: the same scenario's streams of sensors 7 and 31, encoded
  beforehand and written by one thread over two TCP sessions into
  `gridwatch serve-central`.
- place: `greedy_place` with K = 4 on ieee123 with laterals reduced.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` the same operations run with spans
around each layer's public functions and the object holds the per-layer
metrics. The lines before it give the environment and every operation's
figures. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time

from common import (BENCH, OUT, CheckFailed, environment, finish, launch,
                    load_gridwatch, run_worker, stop, x_csv)
import checks
import inputs
import spans

WORKLOADS = ("analyze", "central_replay", "place")
SEND_BATCH = 16          # frames per sendall, per session
SEND_BUFFER = 32768      # bytes; keeps the generator close behind the central
CONNECT_DEADLINE_S = 60.0
# serve-central's acceptor wakes every 0.2 s after its last accept, and the
# run ends on the first wake after the last Bye. Each replay starts its
# frames at another phase of that period, so that the mean over replays is
# the wait a sensor starting at a random moment sees, not one grid point.
ACCEPT_PERIOD_S = 0.2
GOLDEN = 0.6180339887498949

LAYER_METRICS = (
    ("model.feeder_load_ms", "ms"), ("model.system_build_ms", "ms"),
    ("synth.csv_read_s", "s"),
    ("analytics.derive_us", "us/frame"), ("analytics.detect_us", "us/frame"),
    ("analytics.reports", "count"),
    ("central.model_build_ms", "ms"), ("central.fuse_us", "us/k"),
    ("central.track_us", "us/k"), ("central.merge_ms", "ms"),
    ("central.log_write_ms", "ms"),
    ("transport.read_us", "us/msg"), ("transport.decode_us", "us/msg"),
    ("transport.align_us", "us/frame"), ("transport.pending_max", "count"),
    ("transport.wire_bytes_per_frame", "B"), ("transport.shutdown_tail_s", "s"),
    ("transport.encode_us", "us/msg"),
    ("placement.objective_ms", "ms/eval"), ("placement.svd_ms", "ms/eval"),
    ("model.partition_ms", "ms/eval"), ("placement.evaluations", "count"),
)
E2E_UNITS = {"setup_s": "s", "throughput": "1/s", "peak_rss_mb": "MB"}


class Outcome:
    """What one run measured: operations, e2e figures and a span summary."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0            # failures other than the known central-onset miss
        self.setup_s: list[float] = []
        self.units = 0            # units of work done by the timed operations
        self.op_s: list[float] = []
        self.rss_mb: list[float] = []
        self.summary = {"spans": {}, "counters": {}}
        self.extra: dict[str, float] = {}

    def record(self, check) -> None:
        """Count one operation; it fails when its check raises.

        Any failure but `CentralOnsetMissed`, a known fault of the program
        that the analyze inputs show on every pass, makes the run incorrect.
        """
        self.attempted += 1
        try:
            check()
        except CheckFailed as e:
            self.failed += 1
            self.wrong += not isinstance(e, checks.CentralOnsetMissed)
            print(f"check failed: {e}")

    def e2e(self) -> dict[str, float]:
        per_op = self.units / len(self.op_s)
        return {"setup_s": statistics.median(self.setup_s),
                "throughput": per_op / interquartile_mean(self.op_s),
                "peak_rss_mb": statistics.median(self.rss_mb)}


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: robust to a stalled operation, and smoother
    than the median when operation times fall on a grid (serve-central
    exits on a 0.2 s accept tick)."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def _fresh(name: str):
    d = OUT / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


# ------------------------------------------------------------------- analyze

def run_analyze(gw, seed: int, seconds: float, trace: bool,
                duration_s: float = inputs.ANALYZE_DURATION_S) -> Outcome:
    """Offline analysis; its noise is fixed (inputs.ANALYZE_NOISE_SEED), so
    `seed` is unused."""
    st = inputs.make_streams(gw, inputs.ANALYZE_NOISE_SEED, duration_s)
    wdir = _fresh("analyze")
    gw.synth.write_streams(wdir / "streams", st.frames, st.scenario,
                           gw.synth.GroundTruth(events=()))
    args = ["analyze", "--streams", str(wdir / "streams"), "--out", str(wdir / "out"),
            "--seconds", str(seconds)]
    if trace:
        args += ["--trace", str(wdir / "trace.csv")]
    res, rss_mb = run_worker(args, wdir / "rss.json")

    system = gw.model.build_system(st.feeder)
    expected = checks.expected_x(system.H, st.feeder.bus_ids, st.frames)
    out = Outcome()
    first = None
    for i in range(len(res["op_s"])):
        pdir = wdir / "out" / f"pass{i}"
        log, xcsv = (pdir / "eventlog.jsonl").read_text(), (pdir / "central_x.csv").read_text()
        first = first or (log, xcsv)

        def check():
            checks.check_analysis(log, xcsv, expected, st.scenario, inputs.SENSORS)
            if (log, xcsv) != first:
                raise CheckFailed(f"pass {i} output differs from pass 0")
        out.record(check)
    out.setup_s, out.op_s, out.rss_mb = res["setup_s"], res["op_s"], [rss_mb]
    out.units = res["frames"] * len(res["op_s"])
    if trace:
        out.summary = res["trace"]
    return out


# ------------------------------------------------------------ central_replay

def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _connect(port: int, proc: subprocess.Popen, deadline: float) -> socket.socket:
    while True:
        s = socket.socket()
        s.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SEND_BUFFER)
        try:
            s.connect(("127.0.0.1", port))
            return s
        except ConnectionRefusedError:
            s.close()
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("serve-central never started listening")
            time.sleep(0.001)


def replay_once(wires: dict, cmd: list[str], port: int, wdir, phase_s: float) -> dict:
    """Launch serve-central, write every session, and time it to exit.

    The first frame goes out `phase_s` after the last session connected.
    """
    t_launch = time.perf_counter()
    proc = launch(cmd, wdir / "rss.json")
    socks = {}
    try:
        for bus in wires:
            socks[bus] = _connect(port, proc, t_launch + CONNECT_DEADLINE_S)
            if len(socks) == 1:
                t_ready = time.perf_counter()
        for bus, w in wires.items():
            socks[bus].sendall(w.hello)
        time.sleep(phase_s)
        t0 = time.perf_counter()
        n = max(w.frames for w in wires.values())
        for i in range(0, n, SEND_BATCH):
            for bus, w in wires.items():
                socks[bus].sendall(b"".join(w.per_frame[i:i + SEND_BATCH]))
        for bus, w in wires.items():
            socks[bus].sendall(w.tail)
            socks[bus].close()
        t_bye = time.perf_counter()
        stdout, code, rss_mb = finish(proc, wdir / "rss.json")
        t_exit = time.perf_counter()
    finally:
        for s in socks.values():
            s.close()
        stop(proc)
    outdir = wdir / "out"
    return {"code": code, "stdout": stdout, "rss_mb": rss_mb,
            "setup_s": t_ready - t_launch, "run_s": t_exit - t0, "tail_s": t_exit - t_bye,
            "log": (outdir / "eventlog.jsonl").read_text(),
            "xcsv": (outdir / "central_x.csv").read_text()}


def run_central_replay(gw, seed: int, seconds: float, trace: bool,
                       duration_s: float = inputs.ANALYZE_DURATION_S) -> Outcome:
    st = inputs.make_streams(gw, seed, duration_s)
    frames = {b: st.frames[b] for b in inputs.REPLAY_SENSORS}
    wdir = _fresh("central_replay")
    tracer = spans.Tracer()
    encode = gw.transport.encode
    if trace:
        tracer.install(gw.transport, "encode", "transport.encode")
    try:
        wires = {b: inputs.encode_session(gw, st.feeder, b, frames[b]) for b in frames}
    finally:
        gw.transport.encode = encode

    placement = gw.model.Placement(inputs.REPLAY_SENSORS)
    ref = gw.pipeline.run_offline(st.feeder, placement, frames)
    ref_log = ref.event_log.to_jsonl(epoch=st.scenario.start_time)
    ref_x = x_csv(ref.xs)
    expected = checks.expected_x(gw.model.build_system(st.feeder).H, st.feeder.bus_ids,
                                 frames)

    out = Outcome()
    summaries = [tracer.summary()]
    tails = []
    phase = random.Random(seed).random()
    start = time.perf_counter()
    while out.attempted == 0 or time.perf_counter() - start < seconds:
        phase = (phase + GOLDEN) % 1.0
        port = _free_port()
        args = ["serve-central", "--feeder", st.scenario.feeder,
                "--placement", ",".join(map(str, inputs.REPLAY_SENSORS)),
                "--port", str(port), "--out", str(wdir / "out"),
                "--epoch", st.scenario.start_time, "--timeout", "60"]
        if trace:
            cmd = [sys.executable, str(BENCH / "central_traced.py"),
                   str(wdir / "trace.csv"), *args]
        else:
            cmd = [sys.executable, "-m", "gridwatch.cli", *args]
        r = replay_once(wires, cmd, port, wdir, phase * ACCEPT_PERIOD_S)

        out.record(lambda: checks.check_replay(r, ref_log, ref_x, expected, len(wires)))
        out.setup_s.append(r["setup_s"])
        out.op_s.append(r["run_s"])
        out.rss_mb.append(r["rss_mb"])
        out.units += sum(w.frames for w in wires.values())
        tails.append(r["tail_s"])
        if trace:
            summaries.append(json.loads((wdir / "trace.json").read_text()))
    out.summary = spans.merge(*summaries)
    out.extra["transport.shutdown_tail_s"] = statistics.median(tails)
    out.extra["transport.wire_bytes_per_frame"] = (
        sum(w.size for w in wires.values()) / sum(w.frames for w in wires.values()))
    return out


# --------------------------------------------------------------------- place

def run_place(gw, seed: int, seconds: float, trace: bool,
              k: int = inputs.PLACE_K) -> Outcome:
    """Greedy placement; the problem is fixed by the feeder, so `seed` is unused."""
    wdir = _fresh("place")
    args = ["place", "--k", str(k), "--seconds", str(seconds)]
    if trace:
        args += ["--trace", str(wdir / "trace.csv")]
    res, rss_mb = run_worker(args, wdir / "rss.json")

    feeder = gw.model.reduce_laterals(gw.model.load_feeder(
        gw.cli.find_feeder(inputs.PLACE_FEEDER)))
    H = gw.model.build_system(feeder).H
    n = len(feeder.bus_ids)
    evaluations = inputs.greedy_candidates(n, k)
    reachable = checks.oracle_greedy(H, feeder.bus_ids, k)
    out = Outcome()
    for solve in res["solves"]:
        out.record(lambda: checks.check_placement(solve, H, feeder.bus_ids, k,
                                                  evaluations, reachable))
    out.setup_s, out.op_s, out.rss_mb = res["setup_s"], res["op_s"], [rss_mb]
    out.units = evaluations * len(res["solves"])
    if trace:
        out.summary = res["trace"]
    return out


# ------------------------------------------------------------------- metrics

def layer_metrics(out: Outcome) -> dict[str, float]:
    """Per-layer figures from the span summary; 0 where a layer was not called."""
    sp, cnt = out.summary["spans"], out.summary["counters"]

    def calls(name):
        return sp.get(name, {}).get("calls", 0)

    def per(name, scale, part="total_s", per_name=None):
        n = calls(per_name or name)
        return sp[name][part] / n * scale if n and name in sp else 0.0

    def total(*names):
        return sum(sp[n]["total_s"] for n in names if n in sp)

    setups = cnt.get("setups", 0)
    reads = calls("synth.read_stream_csv")
    m = {
        "model.feeder_load_ms": per("model.load_feeder", 1e3),
        "model.system_build_ms": (total("model.reduce_laterals", "model.build_system")
                                  / calls("model.build_system") * 1e3
                                  if calls("model.build_system") else 0.0),
        "synth.csv_read_s": total("synth.read_stream_csv") / setups if reads else 0.0,
        "analytics.derive_us": per("analytics.derive", 1e6),
        "analytics.detect_us": per("analytics.step", 1e6, "self_s"),
        "analytics.reports": (cnt.get("analytics.reports", 0) / cnt["passes"]
                              if cnt.get("passes") else 0),
        "central.model_build_ms": per("central.build_central_model", 1e3),
        "central.fuse_us": per("central.fuse_frames", 1e6),
        "central.track_us": per("central.tracker_step", 1e6),
        "central.merge_ms": per("central.fuse_reports", 1e3),
        "central.log_write_ms": per("central.to_jsonl", 1e3),
        "transport.read_us": per("transport.read", 1e6, "self_s"),
        "transport.decode_us": per("transport.decode", 1e6, per_name="transport.read"),
        "transport.align_us": per("transport.push", 1e6),
        "transport.pending_max": cnt.get("transport.pending_max", 0),
        "transport.wire_bytes_per_frame": 0.0,
        "transport.shutdown_tail_s": 0.0,
        "transport.encode_us": per("transport.encode", 1e6),
        "placement.objective_ms": per("placement.objective", 1e3),
        "placement.svd_ms": per("placement.svd", 1e3),
        "model.partition_ms": per("model.partition", 1e3),
        "placement.evaluations": (calls("placement.objective") / cnt["solves"]
                                  if cnt.get("solves") else 0),
    }
    m.update(out.extra)
    return m


RUNNERS = {"analyze": run_analyze, "central_replay": run_central_replay,
           "place": run_place}


def result(out: Outcome, trace: bool) -> dict:
    """The last line of a run: every e2e metric, or with `trace` every layer metric."""
    if trace:
        layers = layer_metrics(out)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]}
                   for name, v in out.e2e().items()}
    return {"correct": out.wrong == 0, "attempted": out.attempted,
            "failed": out.failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    gw = load_gridwatch()
    env = environment()
    out = RUNNERS[args.workload](gw, args.seed, args.seconds, bool(args.trace))
    print("env: " + json.dumps(env))
    print(f"{args.workload}: seed={args.seed} trace={args.trace} attempted={out.attempted} "
          f"failed={out.failed} ops_s={[round(s, 4) for s in out.op_s]} "
          f"setups_s={[round(s, 4) for s in out.setup_s]} "
          + " ".join(f"{k}={v:.6g}" for k, v in out.e2e().items()))
    print(json.dumps(result(out, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
