"""Output checks, computed apart from the program.

Each check raises `CheckFailed` with a reason. None compares against a
stored copy of an earlier output: x[k] and the placement objective are
recomputed here with numpy from the feeder's H, the event log is checked
against the scenario's ground truth and against properties of the log
format, and the networked replay is compared with the offline pipeline run
over the same streams.
"""
from __future__ import annotations

import json
import re

import numpy as np

from common import CheckFailed

X_REL = 1e-9          # x[k] and objective agreement
GREEDY_REL = 1e-6     # objective reached by the independent greedy
ONSET_TOL = 14        # samples between an event's start and its detection


class CentralOnsetMissed(CheckFailed):
    """The central engine flagged an slg fault late or not at all.

    `cusum_step` relearns its baseline for 60 samples after every declared
    change, so a noise alarm shortly before a fault hides the fault (see
    the FOUND line on `cusum_step` in CHANGES.md).
    """


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def sensed_columns(bus_ids, buses, n_cols: int) -> np.ndarray:
    """Mask of H columns a placement senses: current block, then voltage block."""
    B = len(bus_ids)
    mask = np.zeros(n_cols, dtype=bool)
    for b in buses:
        i = bus_ids.index(b)
        mask[3 * i:3 * i + 3] = True
        mask[3 * B + 3 * i:3 * B + 3 * i + 3] = True
    return mask


def _sensed_order(bus_ids, buses) -> np.ndarray:
    """H column of each entry of d_a, in d_a's order (sensors ascending)."""
    B = len(bus_ids)
    cur = [3 * bus_ids.index(b) + p for b in sorted(buses) for p in range(3)]
    return np.array(cur + [3 * B + c for c in cur])


def _live(h_u: np.ndarray) -> np.ndarray:
    # rows with no unsensed entry state "no conductor, no injection"
    return np.any(h_u != 0, axis=1)


def expected_x(H: np.ndarray, bus_ids, frames: dict) -> dict[int, float]:
    """x[k] = |u^H H_a d_a|^2 / ||d_a||^2 for every k all sensors delivered.

    u is the left singular vector of the live rows of H_u with the smallest
    singular value, from this module's own SVD.
    """
    bus_ids = list(bus_ids)
    buses = sorted(frames)
    mask = sensed_columns(bus_ids, buses, H.shape[1])
    h_u = H[:, ~mask]
    live = _live(h_u)
    left, _, _ = np.linalg.svd(h_u[live], full_matrices=False)
    u = np.zeros(H.shape[0], dtype=complex)
    u[live] = left[:, -1]
    row = np.conj(u) @ H[:, _sensed_order(bus_ids, buses)]
    by_k: dict[int, dict] = {}
    for b in buses:
        for f in frames[b]:
            by_k.setdefault(f.k, {})[b] = f
    ks = sorted(k for k, fs in by_k.items() if len(fs) == len(buses))
    d = np.zeros((len(ks), 6 * len(buses)), dtype=complex)
    K3 = 3 * len(buses)
    for r, k in enumerate(ks):
        for j, b in enumerate(buses):
            f = by_k[k][b]
            d[r, 3 * j:3 * j + 3] = sum(f.i_lines.values())
            d[r, K3 + 3 * j:K3 + 3 * j + 3] = f.v
    y = d @ row
    x = np.abs(y) ** 2 / np.sum(np.abs(d) ** 2, axis=1)
    return dict(zip(ks, x.tolist()))


def check_xs(text: str, expected: dict[int, float]) -> None:
    lines = text.splitlines()
    if not lines or lines[0] != "k,x":
        raise CheckFailed("central_x.csv: bad header")
    rows = lines[1:]
    if len(rows) != len(expected):
        raise CheckFailed(f"central_x.csv: {len(rows)} rows, expected one per sample "
                          f"({len(expected)})")
    for row, (k, want) in zip(rows, sorted(expected.items())):
        ks, _, xs = row.partition(",")
        try:
            got_k, got = int(ks), float(xs)
        except ValueError:
            raise CheckFailed(f"central_x.csv: bad row {row!r}")
        if got_k != k:
            raise CheckFailed(f"central_x.csv: row for k={got_k} where k={k} was due")
        if _rel(got, want) > X_REL:
            raise CheckFailed(f"x[{k}] = {got!r}, recomputed {want!r}")


def _entry_key(d: dict) -> tuple:
    if d["rule"] == "central_subspace":
        return (d["start_k"], 0, d["origin"], d["rule"], -1, "", "")
    return (d["start_k"], 1, d["origin"], d["rule"], d["bus"], d["line"] or "", d["label"])


def parse_log(text: str) -> list[dict]:
    entries = []
    for i, line in enumerate(text.splitlines()):
        try:
            d = json.loads(line)
        except json.JSONDecodeError:
            raise CheckFailed(f"eventlog line {i}: not JSON")
        if json.dumps(d, sort_keys=True) != line:
            raise CheckFailed(f"eventlog line {i}: not canonical JSON")
        entries.append(d)
    return entries


def check_log_order(entries: list[dict]) -> None:
    """Entries are sorted, and overlapping intervals share one incident id."""
    keys = [_entry_key(d) for d in entries]
    for i in range(1, len(keys)):
        if keys[i] < keys[i - 1]:
            raise CheckFailed(f"eventlog: entry {i} out of order")
    incident, reach = -1, None
    for i, d in enumerate(entries):
        end = d["end_k"] if d["end_k"] is not None else d["start_k"]
        if reach is None or d["start_k"] > reach:
            incident += 1
            reach = end
        else:
            reach = max(reach, end)
        if d["incident"] != incident:
            raise CheckFailed(f"eventlog: entry {i} has incident {d['incident']}, "
                              f"its interval gives {incident}")


def check_events(entries: list[dict], scenario, sensors) -> None:
    """Faults and sags are seen where and when the scenario put them."""
    events = scenario.events
    volt = [d for d in entries if d["rule"] == "voltage_mag"]
    for d in entries:
        if d["rule"] == "central_subspace":
            ks, end = d["change_ks"], d["end_k"]
            if (not ks or ks[0] != d["start_k"] or ks != sorted(set(ks))
                    or end is not None and ks[-1] > end):
                raise CheckFailed(f"central_subspace record at k={d['start_k']}: "
                                  f"change points {ks[:5]} do not fit its interval")
    for e in events:
        if e.kind not in ("slg_fault", "voltage_sag"):
            continue
        for s in sensors:
            if not any(d["origin"] == str(s) and abs(d["start_k"] - e.start_k) <= ONSET_TOL
                       for d in volt):
                raise CheckFailed(f"{e.kind} at k={e.start_k}: no voltage_mag entry "
                                  f"from sensor {s}")
    for d in volt:
        if not any(e.start_k - ONSET_TOL <= d["start_k"] <= e.end_k + ONSET_TOL
                   for e in events):
            raise CheckFailed(f"voltage_mag entry at k={d['start_k']} outside every event")


def check_central_onsets(entries: list[dict], scenario) -> None:
    """Each slg fault has a central_subspace record starting at its start."""
    central = [d for d in entries if d["rule"] == "central_subspace"]
    missed = [e.start_k for e in scenario.events if e.kind == "slg_fault"
              and not any(abs(d["start_k"] - e.start_k) <= ONSET_TOL for d in central)]
    if missed:
        near = {d["start_k"]: [k for k in d["change_ks"] if abs(k - m) <= 300]
                for d in central for m in missed
                if any(abs(k - m) <= 300 for k in d["change_ks"])}
        raise CentralOnsetMissed(f"slg_fault at k={missed}: no central_subspace record "
                                 f"starts within {ONSET_TOL} samples (records nearby, "
                                 f"start: change points {near})")


def check_analysis(log: str, xcsv: str, expected: dict[int, float], scenario,
                   sensors) -> None:
    """One `analyze` pass: x[k], the log's order and incidents, and detection.

    The central onsets are checked last, so that a pass that fails them has
    passed every other check.
    """
    check_xs(xcsv, expected)
    entries = parse_log(log)
    check_log_order(entries)
    check_events(entries, scenario, sensors)
    check_central_onsets(entries, scenario)


def check_replay(run: dict, ref_log: str, ref_x: str, expected: dict[int, float],
                 sessions: int) -> None:
    """One networked replay: clean exit, no loss, and the offline outputs."""
    if run["code"] != 0:
        raise CheckFailed(f"serve-central exited with code {run['code']}")
    check_central_cli(run["stdout"], sessions)
    if run["log"] != ref_log:
        raise CheckFailed("networked eventlog.jsonl differs from run_offline's")
    if run["xcsv"] != ref_x:
        raise CheckFailed("networked central_x.csv differs from run_offline's")
    check_xs(run["xcsv"], expected)


_CLI_LINE = re.compile(r"sessions=(\d+) gaps=(\d+) rejected=(\d+);")


def check_central_cli(stdout: str, sessions: int) -> None:
    m = _CLI_LINE.search(stdout)
    if m is None:
        raise CheckFailed(f"serve-central printed no summary: {stdout!r}")
    got = tuple(int(g) for g in m.groups())
    if got != (sessions, 0, 0):
        raise CheckFailed(f"serve-central reported sessions={got[0]} gaps={got[1]} "
                          f"rejected={got[2]}")


# ------------------------------------------------------------------ placement

def gram_objective(H: np.ndarray, mask: np.ndarray) -> float:
    """||u^H H_a||^2 with u the bottom eigenvector of G = H_u H_u^H (live rows)."""
    h_u = H[:, ~mask]
    if h_u.shape[1] == 0:
        return 0.0
    live = _live(h_u)
    h = h_u[live]
    _, vecs = np.linalg.eigh(h @ h.conj().T)
    u = np.zeros(H.shape[0], dtype=complex)
    u[live] = vecs[:, 0]
    row = np.conj(u) @ H[:, mask]
    return float(np.vdot(row, row).real)


def oracle_greedy(H: np.ndarray, bus_ids, k: int, max_paths: int = 8) -> list[float]:
    """Objectives an exact K-round greedy can reach, built on `gram_objective`.

    Rounds before the last follow every candidate within GREEDY_REL of the
    round's best, so that a near-tie broken the other way by rounding cannot
    make the program's answer look wrong.
    """
    bus_ids = list(bus_ids)
    cache: dict[frozenset, float] = {}

    def cost(buses: frozenset) -> float:
        if buses not in cache:
            cache[buses] = gram_objective(H, sensed_columns(bus_ids, buses, H.shape[1]))
        return cache[buses]

    paths = {frozenset()}
    for r in range(k):
        nxt: dict[frozenset, float] = {}
        for chosen in paths:
            costs = {chosen | {b}: cost(chosen | {b}) for b in bus_ids if b not in chosen}
            best = min(costs.values())
            keep = (lambda c: c == best) if r == k - 1 else (
                lambda c: c <= best + GREEDY_REL * abs(best))
            nxt.update((s, c) for s, c in costs.items() if keep(c))
        paths = set(sorted(nxt, key=nxt.get)[:max_paths])
    return sorted(cache[p] for p in paths)


def check_placement(solve: dict, H: np.ndarray, bus_ids, k: int,
                    evaluations: int, reachable: list[float]) -> None:
    buses = solve["buses"]
    if len(buses) != k or len(set(buses)) != k:
        raise CheckFailed(f"placement {buses} is not {k} distinct buses")
    if not set(buses) <= set(bus_ids):
        raise CheckFailed(f"placement {buses} names a bus outside the candidates")
    if solve["evaluations"] != evaluations:
        raise CheckFailed(f"{solve['evaluations']} evaluations, expected {evaluations}")
    own = gram_objective(H, sensed_columns(list(bus_ids), buses, H.shape[1]))
    if _rel(solve["objective"], own) > X_REL:
        raise CheckFailed(f"objective {solve['objective']!r} for {buses}, "
                          f"recomputed {own!r}")
    if not any(_rel(solve["objective"], c) <= GREEDY_REL for c in reachable):
        raise CheckFailed(f"objective {solve['objective']!r} not reached by the "
                          f"independent greedy ({reachable})")
