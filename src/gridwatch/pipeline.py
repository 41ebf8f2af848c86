"""Offline pipeline: local engines + central fusion over recorded streams.

The CLI `analyze` path runs this. Each sensor's stream is held as columns
(`analytics.StreamColumns`), read from its CSV by `synth.read_stream_csv`
or produced by `synth.generate`; no per-frame objects are built between
the file and the engines.

The networked processes in `transport.py` do not call `run_offline`; they
run the same local engine per sensor and feed the same block tracker, and
both paths group samples by index k in the same `central.FrameAligner`,
which also drops each sensor's duplicate k and counts its skipped ones:
offline the sensors push their recorded columns in rounds and then end,
while `serve-central` pushes each socket read's frames as they arrive. A
sensor missing at k counts as a gap in both.

Both engines run in blocks. Offline, each local engine takes its stream in
row ranges of `BLOCK_FRAMES` frames (`LocalEngine.run`), and the central
tracker takes what each round of `BLOCK_FRAMES` samples per sensor
releases (`fuse_frames`, `CentralChangeTracker.step`). `serve-local` runs
the local kernels one frame at a time (`LocalEngine.step`, a block of one),
and `serve-central` fuses whatever one socket read releases as one block.
Neither engine's output depends on where its stream is cut, and that
together with the shared grouping keeps the two event logs byte-identical
on the same inputs.

A local engine sees only its own sensor's stream, so offline each one runs
in its own forked child process, one per placement bus, while the parent
fuses and tracks. The parent builds the central model before it forks: its
SVD wakes the BLAS worker threads, which would otherwise spin beside the
children for the CPUs. A child inherits the streams through the fork and
sends back only its reports; the parent takes them in placement order, so
no output depends on which process finishes first.

`forked` is the one fork helper: `run_offline` starts its engines through
it, and `analyze` its stream readers (`cli._read_streams`), one child per
CSV file. It starts one child per job, all at once, and guarantees three
things. Results come back in job order, each only when asked for, so a
caller can check one before it takes the next: `analyze` thereby prints
its read warnings and errors in file-name order, as a serial read would.
What a child raised is raised in the parent, with the child's traceback
as a note. Every child has exited once the caller leaves it, on every
path; one still running is terminated. A reader's parse transients die
with its child, so the parent that then forks the engines, and so each
engine, no longer carries them.
"""
from __future__ import annotations

import multiprocessing
import traceback
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from .analytics import AnomalyReport, DerivedSink, LocalEngine, StreamColumns
from .central import (CentralChangeRecord, CentralChangeTracker, EventLog,
                      build_central_model, fuse_frames, fuse_reports, group_frames)
from .config import Config
from .model import FeederModel, Placement, build_system, partition

# frames per LocalEngine.run call, and samples per central block: enough to
# amortise the per-call work, few enough that a block's arrays stay small
BLOCK_FRAMES = 1024


@dataclass
class PipelineResult:
    event_log: EventLog
    xs: list[tuple[int, float]] = field(default_factory=list)
    local_reports: dict[int, list[AnomalyReport]] = field(default_factory=dict)
    central_records: list[CentralChangeRecord] = field(default_factory=list)
    gaps: int = 0
    skipped: int = 0


def line_ratings_at(feeder: FeederModel, bus: int) -> dict:
    return {l.id: l.rated_current for l in feeder.lines_at(bus)}


def blocks(stream: StreamColumns | None):
    """A stream cut into consecutive row ranges of at most BLOCK_FRAMES
    frames; a sensor without a stream (None) has none."""
    n = 0 if stream is None else len(stream)
    return (stream[s:s + BLOCK_FRAMES] for s in range(0, n, BLOCK_FRAMES))


def run_local_engine(feeder: FeederModel, bus: int, stream: StreamColumns | None,
                     cfg: Config | None = None, derived: DerivedSink | None = None
                     ) -> list[AnomalyReport]:
    eng = LocalEngine(bus, line_ratings_at(feeder, bus), cfg, derived)
    reports: list[AnomalyReport] = []
    for block in blocks(stream):
        reports.extend(eng.run(block))
    reports.extend(eng.finish())
    return reports


def _child(conn, name: str, work: Callable[[], Any]) -> None:
    """A forked child's work: its result, or the exception that stopped it
    with the child's traceback as a note, sent through `conn`."""
    try:
        out = work()
    except Exception as e:
        e.add_note(f"in {name}:\n" + traceback.format_exc())
        out = e
    conn.send(out)


def _receive(name: str, proc, conn) -> Any:
    """A child's result, once it has exited; what it raised is raised here."""
    try:
        out = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"{name} exited with code {proc.exitcode} "
                           f"before sending its result") from None
    proc.join()
    if isinstance(out, Exception):
        raise out
    return out


@contextmanager
def forked(jobs: Iterable[tuple[str, Callable[[], Any]]]) -> Iterator[Iterator[Any]]:
    """Run each job, a (name, work) pair, in its own forked child, all at once.

    Gives an iterator over the children's results in job order, each
    received only when asked for. What a child's work raised is raised
    there, with the child's traceback as a note. Leaving the `with` block,
    by any path, terminates the children still running and joins every
    child. The work and its inputs reach a child through the fork; only
    its result or exception comes back, pickled.
    """
    # a child flushes stdout and stderr as it exits; the fork start method
    # flushes the parent's before each fork, so buffered text prints once
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for name, work in jobs:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, name=name, args=(send, name, work))
            proc.start()
            send.close()   # the child holds the only writer, so its death reads as EOF
            children.append((name, proc, recv))
        yield (_receive(*child) for child in children)
    finally:
        for _, proc, recv in children:
            recv.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()


def run_offline(feeder: FeederModel, placement: Placement,
                local_streams: dict[int, StreamColumns],
                central_streams: dict[int, StreamColumns] | None = None,
                cfg: Config | None = None, derived: DerivedSink | None = None
                ) -> PipelineResult:
    """Full hierarchy over recorded streams.

    `local_streams` feed the per-sensor engines (sensor-side data);
    `central_streams` feed the fusion stage (uplink data, possibly
    tampered). They default to the same streams. The parent builds the
    central model, so a placement `partition` refuses raises before any
    child starts; then each sensor's engine runs in a forked child, one per
    placement bus, and the parent fuses in the meantime. Each block an
    engine derives goes to `derived(bus, block)` in that sensor's child, in
    block order, so the sink must leave its results outside the process, as
    `analyze --derived` does in files. What a child raises is raised here,
    and every child has exited when this returns or raises.
    """
    cfg = cfg or Config()
    buses = placement.sensor_buses
    central = local_streams if central_streams is None else central_streams
    model = build_central_model(partition(build_system(feeder), placement))

    jobs = ((f"the local engine of bus {bus}",
             partial(run_local_engine, feeder, bus, local_streams.get(bus), cfg, derived))
            for bus in buses)
    with forked(jobs) as reports:
        xs: list[tuple[int, float]] = []
        tracker = CentralChangeTracker(model, cfg, sink=lambda ks, x: xs.extend(zip(ks, x)))
        records: list[CentralChangeRecord] = []
        for released in group_frames(buses, {b: (c.ks, c.vi) for b, c in central.items()},
                                     BLOCK_FRAMES):
            records.extend(tracker.step(fuse_frames(model, released)))
        records.extend(tracker.finish())
        local_reports = dict(zip(buses, reports))

    flat = [(str(bus), r) for bus, reps in sorted(local_reports.items()) for r in reps]
    log = fuse_reports(flat, records)
    return PipelineResult(event_log=log, xs=xs, local_reports=local_reports,
                          central_records=records, gaps=tracker.gaps,
                          skipped=tracker.skipped)
