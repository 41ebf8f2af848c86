"""Offline pipeline: local engines + central fusion over recorded streams.

The CLI `analyze` path runs this. Each sensor's stream is held as columns
(`analytics.StreamColumns`), read from its CSV by `synth.read_stream_csv`
or converted once from a list of frames; no per-frame objects are built
between the file and the engines.

The networked processes in `transport.py` do not call `run_offline`; they
run the same local engine per sensor and feed the same block tracker, and
both paths group samples by index k in the same `central.FrameAligner`:
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
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .analytics import AnomalyReport, LocalEngine, PhasorFrame, StreamColumns
from .central import (CentralChangeRecord, CentralChangeTracker, EventLog,
                      build_central_model, fuse_frames, fuse_reports, group_frames)
from .config import Config
from .model import FeederModel, Placement, build_system, partition

# frames per LocalEngine.run call, and samples per central block: enough to
# amortise the per-call work, few enough that a block's arrays stay small
BLOCK_FRAMES = 1024

Stream = StreamColumns | list[PhasorFrame]


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


def columns(streams: dict[int, Stream], buses) -> dict[int, StreamColumns]:
    """The streams of `buses` as columns; a list of frames is converted once,
    and a bus without a stream has none."""
    return {b: s if isinstance(s, StreamColumns) else StreamColumns.from_frames(s)
            for b, s in streams.items() if b in buses}


def run_local_engine(feeder: FeederModel, bus: int, stream: StreamColumns | None,
                     cfg: Config | None = None) -> list[AnomalyReport]:
    eng = LocalEngine(bus, line_ratings_at(feeder, bus), cfg)
    reports: list[AnomalyReport] = []
    for block in blocks(stream):
        reports.extend(eng.run(block))
    reports.extend(eng.finish())
    return reports


def run_offline(feeder: FeederModel, placement: Placement,
                local_streams: dict[int, Stream],
                central_streams: dict[int, Stream] | None = None,
                cfg: Config | None = None) -> PipelineResult:
    """Full hierarchy over recorded streams, each as columns or as a list
    of frames.

    `local_streams` feed the per-sensor engines (sensor-side data);
    `central_streams` feed the fusion stage (uplink data, possibly
    tampered). They default to the same streams.
    """
    cfg = cfg or Config()
    buses = placement.sensor_buses
    local = columns(local_streams, buses)
    central = local if central_streams is None else columns(central_streams, buses)

    local_reports: dict[int, list[AnomalyReport]] = {}
    for bus in buses:
        local_reports[bus] = run_local_engine(feeder, bus, local.get(bus), cfg)

    model = build_central_model(partition(build_system(feeder), placement))
    xs: list[tuple[int, float]] = []
    tracker = CentralChangeTracker(model, cfg, sink=lambda ks, x: xs.extend(zip(ks, x)))
    records: list[CentralChangeRecord] = []
    for released in group_frames(buses, {b: (c.ks, c.vi) for b, c in central.items()},
                                 BLOCK_FRAMES):
        records.extend(tracker.step(fuse_frames(model, released)))
    records.extend(tracker.finish())

    flat = [(str(bus), r) for bus, reps in sorted(local_reports.items()) for r in reps]
    log = fuse_reports(flat, records)
    return PipelineResult(event_log=log, xs=xs, local_reports=local_reports,
                          central_records=records, gaps=tracker.gaps,
                          skipped=tracker.skipped)
