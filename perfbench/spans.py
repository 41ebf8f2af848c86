"""In-memory spans around calls into gridwatch's public functions.

`Tracer.install` replaces a function or method with a wrapper that records
one span per call: (id, parent id, name, start, end). Spans stay in memory
and are written out by `Tracer.dump` when the run ends. Nesting is tracked
per thread, so a span's self time is its duration minus the time of its
direct children, which is how `LocalEngine.step` minus its `derive` and
`MessageStream.read` minus its `decode` are measured.

Nothing in the program is edited: the wrappers are installed from the
benchmark's own code, in the process that does the work, before it starts.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_return=None):
        nid = self._nid(name)
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, nid, t0, t1))
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def install(self, owner, attr: str, name: str, on_return=None) -> None:
        """Wrap `owner.attr` (a module function or a class method) in place."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_return))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def high(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.counters.get(name, float("-inf")):
                self.counters[name] = value

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        dur = {}
        child = {}
        for sid, parent, _, t0, t1 in self.spans:
            d = t1 - t0
            dur[sid] = d
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + d
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for sid, _, nid, t0, t1 in self.spans:
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["total_s"] += dur[sid]
            agg["self_s"] += dur[sid] - child.get(sid, 0.0)
        return {"spans": out, "counters": dict(self.counters)}

    def dump(self, path: str | Path) -> dict:
        """Write every span as CSV next to a JSON summary; return the summary."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, nid, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{self.names[nid]},{t0!r},{t1!r}\n")
        summary = self.summary()
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1))
        return summary


def merge(*summaries: dict) -> dict:
    """Combine summaries of several processes or runs."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for s in summaries:
        for name, agg in s["spans"].items():
            cur = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in cur:
                cur[key] += agg[key]
        for name, v in s["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters.get(name, v), v)
            else:
                counters[name] = counters.get(name, 0) + v
    return {"spans": spans, "counters": counters}


def install_local(tracer: Tracer, gw) -> None:
    """Spans for the offline path: model, synth, analytics and central."""
    from gridwatch import analytics

    tracer.install(gw.model, "load_feeder", "model.load_feeder")
    tracer.install(gw.synth, "read_stream_csv", "synth.read_stream_csv")
    tracer.install(analytics.LocalEngine, "derive", "analytics.derive")
    tracer.install(analytics.LocalEngine, "step", "analytics.step",
                   lambda args, out: tracer.count("analytics.reports", len(out)))
    tracer.install(analytics.LocalEngine, "finish", "analytics.finish",
                   lambda args, out: tracer.count("analytics.reports", len(out)))
    install_central(tracer, gw, gw.pipeline)


def install_central(tracer: Tracer, gw, caller) -> None:
    """Spans for the central layer as `caller` (pipeline or transport) uses it."""
    tracer.install(caller, "build_central_model", "central.build_central_model")
    tracer.install(caller, "fuse_frames", "central.fuse_frames")
    tracer.install(gw.central.CentralChangeTracker, "step", "central.tracker_step")
    tracer.install(caller, "fuse_reports", "central.fuse_reports")
    tracer.install(gw.central.EventLog, "to_jsonl", "central.to_jsonl")


def install_transport(tracer: Tracer, gw) -> None:
    """Spans for the central process of the networked replay."""
    t = gw.transport
    tracer.install(gw.cli, "load_feeder", "model.load_feeder")
    install_central(tracer, gw, t)
    tracer.install(t.MessageStream, "read", "transport.read")
    tracer.install(t, "decode", "transport.decode")
    tracer.install(t.FrameAligner, "push", "transport.push",
                   lambda args, out: tracer.high("transport.pending_max",
                                                 len(args[0].pending)))


def install_placement(tracer: Tracer, gw) -> None:
    p = gw.placement
    tracer.install(gw.model, "load_feeder", "model.load_feeder")
    tracer.install(gw.model, "reduce_laterals", "model.reduce_laterals")
    tracer.install(gw.model, "build_system", "model.build_system")
    tracer.install(p, "objective", "placement.objective")
    tracer.install(p, "smallest_left_singular_vector", "placement.svd")
    tracer.install(p, "partition", "model.partition")
