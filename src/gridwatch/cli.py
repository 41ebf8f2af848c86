"""Command-line entry point: place, simulate, analyze, serve-*, report."""
from __future__ import annotations

import argparse
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

from . import synth
from .analytics import StreamColumns
from .central import EventLog
from .config import Config, ConfigError, load_config
from .model import FeederError, Placement, build_system, load_feeder, reduce_laterals
from .pipeline import run_offline
from .placement import (BudgetError, exhaustive_place, greedy_place,
                        random_place, three_phase_buses)

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_DATA, EXIT_NETWORK = 0, 1, 2, 3, 4

DATA_DIR = Path(__file__).parent / "data"


def find_feeder(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    bundled = DATA_DIR / f"{name}.feeder"
    if bundled.exists():
        return bundled
    raise FeederError(f"no feeder file or bundled feeder named {name!r}")


def find_scenario(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    bundled = DATA_DIR / "scenarios" / f"{name}.json"
    if bundled.exists():
        return bundled
    raise FeederError(f"no scenario file or bundled scenario named {name!r}")


def _config(args) -> Config:
    loaded = getattr(args, "_loaded_config", None)
    return loaded if loaded is not None else Config()


def _parse_buses(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(b) for b in text.split(","))
    except ValueError:
        raise FeederError(f"bad bus list {text!r}")


def cmd_place(args) -> int:
    feeder = load_feeder(find_feeder(args.feeder))
    if args.reduce_laterals:
        feeder = reduce_laterals(feeder)
    system = build_system(feeder)
    cands = three_phase_buses(system) if args.candidates == "three-phase" else None
    try:
        if args.solver == "greedy":
            res = greedy_place(system, args.k, cands)
        elif args.solver == "exhaustive":
            res = exhaustive_place(system, args.k, cands)
        else:
            res = random_place(system, args.k, args.seed, cands)
    except ValueError as e:  # k outside 1..number of candidates
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    out = {"solver": res.solver, "cost": res.objective,
           "buses": list(res.placement.sensor_buses),
           "run_time_s": round(res.elapsed, 3), "evaluations": res.evaluations,
           "eigensolves": res.eigensolves}
    print(json.dumps(out))
    print(f"{'Solver':<12}{'Cost':<16}{'Buses':<28}{'Run Time'}")
    print(f"{res.solver:<12}{res.objective:<16.5f}"
          f"{','.join(str(b) for b in res.placement.sensor_buses):<28}"
          f"{res.elapsed:.3f} s")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = synth.Scenario.from_json(Path(find_scenario(args.scenario)).read_text())
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    feeder = load_feeder(find_feeder(scenario.feeder))
    streams, truth = synth.generate(scenario, feeder)
    outdir = Path(args.out)
    synth.write_streams(outdir, streams, scenario, truth)
    attacks = [e for e in scenario.events if e.kind == "replay_attack"]
    if attacks:
        tampered = streams
        for e in attacks:
            tampered = synth.apply_replay_attack(tampered, e.bus, e.start_k,
                                                 e.end_k, window=int(e.magnitude))
        synth.write_streams(outdir / "central", tampered, scenario, truth)
    print(f"wrote {len(streams)} stream(s) to {outdir}")
    return EXIT_OK


def _read_stream(path: str | Path) -> StreamColumns:
    """One stream CSV as columns; says on stderr how many rows were malformed."""
    stream, skipped = synth.read_stream_csv(path)
    if skipped:
        print(f"warning: skipped {skipped} malformed row(s) in {path}", file=sys.stderr)
    return stream


def _read_streams(directory: Path) -> dict[int, StreamColumns]:
    """Every bus<N>.csv under `directory`, by sensor bus N (docs/streams.md)."""
    streams: dict[int, StreamColumns] = {}
    paths: dict[int, Path] = {}
    for path in sorted(directory.glob("bus*.csv")):
        stream = _read_stream(path)
        if stream.bus < 0:
            raise FeederError(f"{path}: not a stream name; streams are named bus<N>.csv")
        if stream.bus in streams:
            raise FeederError(f"{path}: a second stream for bus {stream.bus}, "
                              f"after {paths[stream.bus].name}")
        if not len(stream):
            raise FeederError(f"{path}: no valid rows")
        streams[stream.bus], paths[stream.bus] = stream, path
    if not streams:
        raise FeederError(f"no bus*.csv streams under {directory}")
    return streams


def cmd_analyze(args) -> int:
    cfg = _config(args)
    indir = Path(args.streams)
    scenario_path = indir / "scenario.json"
    if not scenario_path.exists():
        raise FeederError(f"{indir} has no scenario.json")
    scenario = synth.Scenario.from_json(scenario_path.read_text())
    feeder = load_feeder(find_feeder(args.feeder or scenario.feeder))
    local_streams = _read_streams(indir)
    central_dir = indir / "central"
    central_streams = _read_streams(central_dir) if central_dir.exists() else None
    buses = _parse_buses(args.placement) if args.placement else tuple(sorted(local_streams))
    res = run_offline(feeder, Placement(buses), local_streams, central_streams, cfg)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "eventlog.jsonl").write_text(
        res.event_log.to_jsonl(epoch=scenario.start_time,
                               sample_rate=scenario.sample_rate))
    xcsv = ["k,x"] + [f"{k},{x!r}" for k, x in res.xs]
    (outdir / "central_x.csv").write_text("\n".join(xcsv) + "\n")
    if args.derived:
        _write_derived(outdir, feeder, buses, local_streams, cfg)
    incidents = {e.incident for e in res.event_log.entries}
    print(f"{len(res.event_log.entries)} log entries, {len(incidents)} incident(s), "
          f"{res.gaps} gap(s); wrote {outdir}/eventlog.jsonl")
    return EXIT_OK


def _write_derived(outdir: Path, feeder, buses, streams, cfg) -> None:
    from .analytics import LocalEngine
    from .pipeline import blocks, line_ratings_at
    for bus in buses:
        eng = LocalEngine(bus, line_ratings_at(feeder, bus), cfg)
        rows = ["k,line,vmag_a,vmag_b,vmag_c,p_a,q_a,imag_a,beta_hat,qss_residual"]
        for block in blocks(streams.get(bus)):
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
        (outdir / f"derived_bus{bus}.csv").write_text("\n".join(rows) + "\n")


def cmd_report(args) -> int:
    log = EventLog.from_jsonl(Path(args.eventlog).read_text())
    truth = synth.GroundTruth.from_json(Path(args.groundtruth).read_text())
    tol = args.tolerance
    physical = [e for e in truth.events if e["kind"] != "replay_attack"]
    hits, misses = [], []
    for ev in physical:
        lo, hi = ev["start_k"] - tol, ev["end_k"] + tol
        matched = [e for e in log.entries
                   if lo <= e.record.start_k <= hi
                   or (e.record.end_k is not None and lo <= e.record.end_k <= hi)]
        (hits if matched else misses).append((ev, matched))
    matched_incidents = {e.incident for _, ms in hits for e in ms}
    all_incidents = {e.incident for e in log.entries}
    false_alarms = sorted(all_incidents - matched_incidents)
    summary = {
        "events": len(physical), "hits": len(hits), "misses": len(misses),
        "false_alarm_incidents": len(false_alarms),
    }
    print(json.dumps(summary))
    print(f"{'Event':<22}{'Interval':<18}{'Matched entries'}")
    for ev, ms in hits + [(m, []) for m, _ in misses]:
        kind = ev["kind"]
        print(f"{kind:<22}{str((ev['start_k'], ev['end_k'])):<18}{len(ms)}")
    return EXIT_OK if not misses else EXIT_DATA


def cmd_serve_central(args) -> int:
    from .transport import serve_central
    cfg = _config(args)
    feeder = load_feeder(find_feeder(args.feeder))
    placement = Placement(_parse_buses(args.placement))
    ready = threading.Event()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "central_x.csv", "w") as xcsv:
        xcsv.write("k,x\n")
        result = serve_central(
            (args.host, args.port or cfg.port), feeder, placement, cfg, ready=ready,
            timeout_s=args.timeout,
            sink=lambda ks, xs: xcsv.write("".join(f"{k},{x!r}\n" for k, x in zip(ks, xs))))
    (outdir / "eventlog.jsonl").write_text(result.event_log.to_jsonl(epoch=args.epoch))
    gaps = sum(s.gaps for s in result.sessions.values())
    print(f"sessions={len(result.sessions)} gaps={gaps} rejected={result.rejected}; "
          f"wrote {outdir}/eventlog.jsonl")
    unfinished = sum(1 for b in placement.sensor_buses
                     if b not in result.sessions or not result.sessions[b].done)
    lost = {"stale_releases": result.stale_releases, "late": result.late,
            "central_gaps": result.gaps, "skipped": result.skipped,
            "unfinished": unfinished, "protocol_errors": result.protocol_errors}
    if any(lost.values()):
        print("warning: central fusion incomplete: "
              + " ".join(f"{k}={v}" for k, v in lost.items()), file=sys.stderr)
    return EXIT_OK


def cmd_serve_local(args) -> int:
    from .transport import pace, serve_local
    cfg = _config(args)
    feeder = load_feeder(find_feeder(args.feeder))
    frames = pace(_read_stream(args.stream).frames(), args.rate)
    try:
        stats = serve_local(frames, args.sensor, (args.host, args.port or cfg.port),
                            feeder, cfg, spool_path=args.spool)
    except ConnectionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NETWORK
    print(f"sent {stats.frames_sent} frames, {stats.reports_sent} reports, "
          f"{stats.reconnects} reconnect(s)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gridwatch",
                                description="hierarchical phasor-stream anomaly detection")
    p.add_argument("--config", help="config file (section/key=value text)")
    sub = p.add_subparsers(dest="cmd", required=True)

    pp = sub.add_parser("place", help="optimize sensor placement")
    pp.add_argument("--feeder", required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--solver", choices=("greedy", "exhaustive", "random"),
                    default="greedy")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--candidates", choices=("all", "three-phase"), default="all")
    pp.add_argument("--reduce-laterals", action="store_true")
    pp.set_defaults(fn=cmd_place)

    ps = sub.add_parser("simulate", help="generate scenario streams")
    ps.add_argument("--scenario", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--seed", type=int)
    ps.set_defaults(fn=cmd_simulate)

    pa = sub.add_parser("analyze", help="offline pipeline over recorded streams")
    pa.add_argument("--streams", required=True, help="directory from simulate")
    pa.add_argument("--out", required=True)
    pa.add_argument("--feeder")
    pa.add_argument("--placement", help="comma-separated sensor buses")
    pa.add_argument("--derived", action="store_true",
                    help="write per-sample derived metrics per sensor")
    pa.set_defaults(fn=cmd_analyze)

    pr = sub.add_parser("report", help="compare an event log against ground truth")
    pr.add_argument("--eventlog", required=True)
    pr.add_argument("--groundtruth", required=True)
    pr.add_argument("--tolerance", type=int, default=14)
    pr.set_defaults(fn=cmd_report)

    pc = sub.add_parser("serve-central", help="run the central engine over TCP")
    pc.add_argument("--feeder", required=True)
    pc.add_argument("--placement", required=True)
    pc.add_argument("--host", default="127.0.0.1")
    pc.add_argument("--port", type=int)
    pc.add_argument("--out", required=True)
    pc.add_argument("--timeout", type=float, default=60.0)
    pc.add_argument("--epoch", help="ISO-8601 time of sample k=0 for log timestamps")
    pc.set_defaults(fn=cmd_serve_central)

    pl = sub.add_parser("serve-local", help="stream one sensor to the central engine")
    pl.add_argument("--feeder", required=True)
    pl.add_argument("--sensor", type=int, required=True)
    pl.add_argument("--stream", required=True, help="bus CSV to replay")
    pl.add_argument("--rate", type=float, default=0.0,
                    help="rate multiplier; 0 = max speed")
    pl.add_argument("--host", default="127.0.0.1")
    pl.add_argument("--port", type=int)
    pl.add_argument("--spool", help="spool file for disconnect buffering")
    pl.set_defaults(fn=cmd_serve_local)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        args._loaded_config = load_config(args.config) if args.config else None
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FeederError, synth.ScenarioError, synth.ConvergenceError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except BudgetError as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
