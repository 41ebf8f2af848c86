"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see every line. The
criteria pin their tolerances here; nothing is deferred to configuration.
"""
import math

import numpy as np
import pytest

from gridwatch.analytics import (DetectorState, classify_voltage, cusum_step, qss_residuals,
                                 window_correlations)
from gridwatch.central import build_central_model, central_xs
from gridwatch.config import Config
from gridwatch.model import Placement, build_system, load_feeder, partition, reduce_laterals
from gridwatch.pipeline import run_offline
from gridwatch.placement import exhaustive_place, greedy_place, random_place
from gridwatch.synth import Scenario, apply_replay_attack, generate
from gridwatch.transport import ProtocolError, decode

from conftest import DATA, fuse_streams, scenario_path, toy_feeder

PAPER_COST = 0.51477  # published optimum for comparison; not asserted


def line(n, ok, detail):
    print(f"ACCEPTANCE {n:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def slgf_world(ieee34):
    sc = Scenario.from_json(scenario_path("slgf").read_text())
    streams, truth = generate(sc, ieee34)
    placement = Placement(sc.sensors)
    offline = run_offline(ieee34, placement, streams, cfg=Config())
    return sc, streams, truth, placement, offline


def test_criterion_1_placement_parity(ieee34_system):
    g = greedy_place(ieee34_system, 3)
    e = exhaustive_place(ieee34_system, 3)
    rel = abs(g.objective - e.objective) / e.objective
    med = float(np.median([random_place(ieee34_system, 3, s).objective
                           for s in range(100)]))
    ok = (rel <= 1e-6 and med >= 2.0 * g.objective
          and e.evaluations == 5984 and e.elapsed <= 600.0 and g.elapsed <= 15.0)
    line(1, ok, f"greedy {g.objective:.5f} {g.placement.sensor_buses} vs "
                f"exhaustive {e.objective:.5f} {e.placement.sensor_buses} "
                f"(rel {rel:.1e}); random median/greedy {med / g.objective:.2f}x; "
                f"times {g.elapsed:.1f}s/{e.elapsed:.1f}s; paper cost {PAPER_COST} (logged)")
    assert ok


def test_criterion_2_ieee123_scale(ieee123):
    red = reduce_laterals(ieee123)
    assert red.bus_count == 70
    sysm = build_system(red)
    g = greedy_place(sysm, 20)
    randoms = [random_place(sysm, 20, s).objective for s in range(100)]
    dominated = all(r > g.objective for r in randoms)
    ok = g.elapsed <= 300.0 and dominated
    line(2, ok, f"greedy K=20 on 70-bus in {g.elapsed:.1f}s, objective "
                f"{g.objective:.3f}; dominates all 100 random "
                f"(min random {min(randoms):.3f})")
    assert ok


def test_criterion_3_quasi_steady_property_suite(ieee34):
    drifts_hz = (0.0, 0.05, -0.05, 0.5, -0.5)
    worst_ratio, worst_resid = 0.0, 0.0
    windows = 0
    for hz in drifts_hz:
        sc = Scenario(feeder="ieee34", duration_s=2.0,
                      base_loads={25: np.full(3, 0.001 + 0.0005j)},
                      beta_profile=((0, 2 * np.pi * hz / 120.0),),
                      noise_sigma=0.0, sensors=(7,), seed=3)
        streams, _ = generate(sc, ieee34)
        V = np.array([f.v for f in streams[7]])
        for lid in ("6-7", "7-8"):
            R = window_correlations(V, np.array([f.i_lines[lid] for f in streams[7]]), 12)
            windows += len(R)
            s = np.linalg.svd(R, compute_uv=False)
            worst_ratio = max(worst_ratio, float((s[:, 1] / s[:, 0]).max()))
            worst_resid = max(worst_resid, float((qss_residuals(R) / s[:, 0] ** 2).max()))
    ok = worst_ratio <= 1e-8 and worst_resid <= 1e-12
    line(3, ok, f"{windows} windows over drifts {drifts_hz} Hz: "
                f"max sigma2/sigma1 {worst_ratio:.1e} (<=1e-8), "
                f"max residual/sigma1^2 {worst_resid:.1e} (<=1e-12)")
    assert ok


def test_criterion_4_central_metric_exactness(ieee34):
    # exact homogeneity with every bus sensed on a 5-bus toy
    toy = toy_feeder(5, y=2.0 - 1.0j)
    sc = Scenario(feeder="toy", duration_s=0.5,
                  base_loads={5: np.full(3, 0.005 + 0.002j)},
                  noise_sigma=0.0, sensors=toy.bus_ids, seed=1)
    streams, _ = generate(sc, toy)
    model = build_central_model(partition(build_system(toy), Placement(toy.bus_ids)))
    fused = fuse_streams(model, streams)
    worst = float(np.max(central_xs(model, fused.D)))
    null_ok = worst <= 1e-18

    # separation under the smallest-singular projection with a sensed fault
    sc2 = Scenario.from_json(scenario_path("fault_at_sensor").read_text())
    streams2, _ = generate(sc2, ieee34)
    res = run_offline(ieee34, Placement(sc2.sensors), streams2, cfg=Config())
    xs = np.array(res.xs)
    ev = sc2.events[0]
    base = float(np.median(xs[(xs[:, 0] < ev.start_k - 10), 1]))
    fault = float(np.median(xs[(xs[:, 0] >= ev.start_k + 10)
                               & (xs[:, 0] < ev.end_k - 10), 1]))
    ratio = fault / base
    sep_ok = ratio >= 10.0
    ok = null_ok and sep_ok
    line(4, ok, f"null-projector max x {worst:.1e} (<=1e-18); "
                f"fault/steady median ratio {ratio:.1f} (>=10)")
    assert ok


def test_criterion_5_slgf_end_to_end(slgf_world):
    sc, streams, truth, placement, offline = slgf_world
    clusters = offline.central_records
    onsets = [r.start_k for r in clusters]
    expected = [e.start_k for e in sc.events]
    within = (len(clusters) == 2
              and all(abs(a - b) <= 14 for a, b in zip(onsets, expected)))
    sag_sensors = [bus for bus, reps in offline.local_reports.items()
                   if any(r.rule == "voltage_mag" and r.label == "sag"
                          and r.end_k is not None for r in reps)]
    ok = within and len(sag_sensors) >= 2
    line(5, ok, f"central clusters at {onsets} vs truth {expected} (+-14); "
                f"sag reports at sensors {sorted(sag_sensors)} (>=2 of 3)")
    assert ok


def test_criterion_6_replay_attack_degradation(slgf_world, ieee34):
    sc, streams, truth, placement, offline = slgf_world
    cfg = Config()

    def central_changes(tampered):
        res = run_offline(ieee34, placement, streams, central_streams=tampered,
                          cfg=cfg)
        return sum(len(r.change_ks) for r in res.central_records)

    clean = sum(len(r.change_ks) for r in offline.central_records)
    attack = {}
    for name, buses in (("minor", (7,)), ("dominant", (19,)), ("two", (19, 31))):
        tampered = streams
        for b in buses:
            tampered = apply_replay_attack(tampered, b, 240, 960, window=240)
        attack[name] = central_changes(tampered)
    locals_ok = all(len(reps) >= 1 for reps in offline.local_reports.values())
    ok = (clean >= attack["minor"] >= attack["dominant"] >= attack["two"]
          and attack["two"] == 0 and locals_ok)
    line(6, ok, f"central changes clean={clean} >= minor={attack['minor']} >= "
                f"dominant={attack['dominant']} >= two={attack['two']} (==0); "
                f"local engines all reported: {locals_ok}")
    assert ok


def test_criterion_7_optimal_vs_random_sensitivity(ieee34):
    sc = Scenario.from_json(scenario_path("load_loss").read_text())
    streams, _ = generate(sc, ieee34)
    ev = sc.events[0]

    def rel_jump(buses):
        res = run_offline(ieee34, Placement(buses), streams, cfg=Config())
        xs = np.array(res.xs)
        base = float(np.median(xs[xs[:, 0] < ev.start_k - 10, 1]))
        event = float(np.median(xs[(xs[:, 0] >= ev.start_k + 20)
                                   & (xs[:, 0] < ev.end_k - 20), 1]))
        return abs(event - base) / base

    greedy_jump = rel_jump((2, 23, 29))   # bundled greedy == exhaustive set
    random_jump = rel_jump((1, 3, 9))
    ok = greedy_jump >= 3.0 * random_jump
    line(7, ok, f"bus-24 load loss: relative jump greedy {greedy_jump:.3f} vs "
                f"random {random_jump:.3f} ({greedy_jump / random_jump:.1f}x, >=3x)")
    assert ok


def test_criterion_8_cusum_calibration():
    rng = np.random.default_rng(42)
    xs = rng.normal(0.0, 1.0, 1_000_000)
    det = DetectorState()  # defaults nu=0.5, h=5
    alarms = 0
    for x in xs:
        alarms += cusum_step(det, float(x))
    interval = len(xs) / max(alarms, 1)
    arl_ok = interval >= 1e3

    delays = []
    for t in range(100):
        r = np.random.default_rng(1000 + t)
        det = DetectorState()
        for x in r.normal(0.0, 1.0, det.warmup):
            cusum_step(det, float(x))
        hit = math.inf
        for i, x in enumerate(r.normal(5.0, 1.0, 50), start=1):
            if cusum_step(det, float(x)):
                hit = i
                break
        delays.append(hit)
    mean_delay = float(np.mean(delays))
    step_ok = mean_delay <= 10.0
    ok = arl_ok and step_ok
    arl_note = ("yes" if arl_ok else
                "NO - a two-sided CUSUM at nu=0.5, h=5 has ARL0 ~ 470 "
                "(Siegmund); unattainable as specified, see docs/criterion8.md")
    line(8, ok, f"false-alarm interval {interval:.0f} samples (>=1000: {arl_note}); "
                f"+5sigma step mean delay {mean_delay:.2f} samples (<=10)")
    assert ok


def test_criterion_9_voltage_table_conformance():
    t0, ts = 1.0 / 60.0, 1.0 / 120.0
    half_cycle = 1          # T0/2 at the 120 Hz sample rate
    sixty_s = 7200
    cases = [
        (0.5, 120, "sag"), (0.9, 120, "sag"), (0.1, 120, "sag"),
        (0.05, 120, "interruption"), (0.05, sixty_s + 1, "sustained_interruption"),
        (0.5, sixty_s + 1, "undervoltage"), (1.1, 120, "swell"),
        (1.8, 120, "swell"), (1.1, sixty_s + 1, "overvoltage"),
        (1.8, sixty_s + 1, "overvoltage"), (1.0, 120, None), (0.95, 120, None),
        (1.05, 120, None),
        (0.5, half_cycle, "sag"), (0.5, sixty_s, "sag"),
        (1.2, half_cycle, "swell"), (1.2, sixty_s, "swell"),
        (0.05, sixty_s, "interruption"), (0.05, half_cycle, "interruption"),
    ]
    failures = []
    for mag, tau, expect in cases:
        got, _ = classify_voltage(np.full(min(tau, 4), mag), t0, ts,
                                  tau_samples=tau)
        if got != expect:
            failures.append((mag, tau, expect, got))
    ok = not failures
    line(9, ok, f"{len(cases)} boundary rows checked"
                + ("" if ok else f"; mismatches: {failures}"))
    assert ok


def test_criterion_10_network_transparency(slgf_world, ieee34):
    import socket
    import threading
    from gridwatch.transport import serve_central, serve_local

    sc, streams, truth, placement, offline = slgf_world
    cfg = Config()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    ready = threading.Event()
    box = {}

    def central():
        box["res"] = serve_central(("127.0.0.1", port), ieee34, placement, cfg,
                                   ready=ready, timeout_s=120.0)

    t = threading.Thread(target=central)
    t.start()
    ready.wait(timeout=10.0)
    senders = [threading.Thread(target=serve_local,
                                args=(streams[b], b, ("127.0.0.1", port),
                                      ieee34, cfg))
               for b in placement.sensor_buses]
    for s in senders:
        s.start()
    for s in senders:
        s.join(timeout=120.0)
    t.join(timeout=120.0)
    identical = box["res"].event_log.to_jsonl() == offline.event_log.to_jsonl()

    rng = np.random.default_rng(0)
    crashes = 0
    valid_seed = bytearray()
    for b in placement.sensor_buses[:1]:
        from gridwatch.transport import FRAME, Message, encode
        valid_seed += encode(Message(kind=FRAME, sensor=b, k=0,
                                     frame=streams[b][0]))
    n_random = 700_000
    n_mutated = 300_000
    blob = rng.integers(0, 256, size=64 * n_random // 8, dtype=np.uint8).tobytes()
    for i in range(n_random):
        start = (i * 8) % (len(blob) - 64)
        try:
            decode(blob[start:start + int(rng.integers(0, 64))])
        except ProtocolError:
            pass
        except Exception:
            crashes += 1
    seed = bytes(valid_seed)
    positions = rng.integers(0, len(seed), size=n_mutated)
    values = rng.integers(0, 256, size=n_mutated)
    for pos, val in zip(positions, values):
        buf = bytearray(seed)
        buf[pos] = val
        try:
            decode(bytes(buf))
        except ProtocolError:
            pass
        except Exception:
            crashes += 1
    ok = identical and crashes == 0
    line(10, ok, f"networked EventLog identical: {identical}; codec fuzz "
                 f"{n_random + n_mutated} inputs, {crashes} crashes")
    assert ok
