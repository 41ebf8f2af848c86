"""Seeded inputs for the workloads.

The stream scenario keeps the bundled `slgf` scenario's feeder (ieee34),
base loads, sensors (7, 19, 31) and noise (sigma = 1e-3), stretched to
`duration_s` with six events spread through it. The event times are fixed
fractions of the run. `central_replay` takes its noise from `--seed`;
`analyze` always uses the realisation `ANALYZE_NOISE_SEED`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

SENSORS = (7, 19, 31)
REPLAY_SENSORS = (7, 31)
ANALYZE_DURATION_S = 100.0
# The analyze noise realisation, the same whatever --seed is. On it no
# central_subspace record starts at either slg fault: the first falls in a
# record opened by a noise alarm 48 samples before it, and a noise alarm
# 17 samples before the second restarts the CUSUM warmup, which hides that
# fault until it clears (the `cusum_step` FOUND line in CHANGES.md). So
# every analyze pass fails that one check, and `failed` shows it. With the
# noise drawn from --seed, 12 of the seeds 1-40 failed it and 28 passed,
# and the failed share would depend on the seed.
ANALYZE_NOISE_SEED = 102

# (kind, start, end as fractions of the run, fields)
EVENTS = (
    ("slg_fault", 0.10, 0.12, {"line": "25-26", "phase": "a", "magnitude": 1000.0}),
    ("fuse_open", 0.12, 0.20, {"line": "25-26", "phase": "a"}),
    ("load_loss", 0.30, 0.40, {"bus": 25, "magnitude": 1.0}),
    ("voltage_sag", 0.50, 0.52, {"magnitude": 0.8}),
    ("load_step", 0.70, 0.705, {"bus": 32, "magnitude": 1.5}),
    ("slg_fault", 0.85, 0.87, {"line": "28-29", "phase": "b", "magnitude": 1000.0}),
)

PLACE_FEEDER = "ieee123"
PLACE_K = 4


def stream_scenario(gw, seed: int, duration_s: float = ANALYZE_DURATION_S):
    base = json.loads(gw.cli.find_scenario("slgf").read_text())
    n = int(round(duration_s * float(base["sample_rate"])))
    events = [dict(kind=kind, start_k=int(round(a * n)), end_k=int(round(b * n)), **extra)
              for kind, a, b, extra in EVENTS]
    base.update(duration_s=duration_s, seed=seed, events=events, sensors=list(SENSORS))
    return gw.synth.Scenario.from_json(json.dumps(base))


@dataclass
class Streams:
    scenario: object
    feeder: object
    frames: dict          # bus -> list[PhasorFrame]


def make_streams(gw, seed: int, duration_s: float = ANALYZE_DURATION_S) -> Streams:
    scenario = stream_scenario(gw, seed, duration_s)
    feeder = gw.model.load_feeder(gw.cli.find_feeder(scenario.feeder))
    frames, _ = gw.synth.generate(scenario, feeder)
    return Streams(scenario=scenario, feeder=feeder, frames=frames)


@dataclass
class Wire:
    """One sensor's session as `serve_local` would write it."""
    hello: bytes
    per_frame: list[bytes]   # reports emitted at that frame, then the frame
    tail: bytes              # reports emitted by finish(), then Bye
    frames: int

    @property
    def size(self) -> int:
        return len(self.hello) + sum(map(len, self.per_frame)) + len(self.tail)


def encode_session(gw, feeder, bus: int, frames) -> Wire:
    t = gw.transport
    eng = gw.analytics.LocalEngine(bus, gw.pipeline.line_ratings_at(feeder, bus))

    def report(r) -> bytes:
        return t.encode(t.Message(kind=t.REPORT, sensor=bus, k=r.start_k, report=r))

    per_frame = []
    for f in frames:
        parts = [report(r) for r in eng.step(f)]
        parts.append(t.encode(t.Message(kind=t.FRAME, sensor=bus, k=f.k, frame=f)))
        per_frame.append(b"".join(parts))
    tail = b"".join([report(r) for r in eng.finish()]
                    + [t.encode(t.Message(kind=t.BYE, sensor=bus, k=0, info={}))])
    hello = t.encode(t.Message(kind=t.HELLO, sensor=bus, k=0, info={"sensor": bus}))
    return Wire(hello=hello, per_frame=per_frame, tail=tail, frames=len(frames))


def greedy_candidates(n: int, k: int) -> int:
    """Candidate placements a K-round greedy over n buses must rank."""
    return sum(n - r for r in range(k))
