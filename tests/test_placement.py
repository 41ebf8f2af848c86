import itertools

import numpy as np
import pytest

from gridwatch import placement
from gridwatch.model import Placement, build_system, partition, reduce_laterals
from gridwatch.placement import (BudgetError, RoundBase, _downdated_vectors,
                                 exhaustive_place, greedy_place, objective,
                                 random_place, three_phase_buses)

from conftest import random_radial_feeder, toy_feeder


def dense_eig_oracle(system, placement):
    """lambda_max(W) through the explicit outer-product and a full eigensolver."""
    from gridwatch.central import smallest_left_singular_vector
    part = partition(system, placement)
    u, _ = smallest_left_singular_vector(part.H_u)
    W = part.H_a.conj().T @ np.outer(u, np.conj(u)) @ part.H_a
    return float(np.max(np.linalg.eigvalsh((W + W.conj().T) / 2)))


def test_rank_one_identity_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(10):
        feeder = random_radial_feeder(rng, n_bus=int(rng.integers(4, 9)))
        sysm = build_system(feeder)
        k = int(rng.integers(1, feeder.bus_count))
        pick = tuple(int(b) for b in rng.choice(feeder.bus_ids, size=k, replace=False))
        direct = objective(sysm, Placement(pick))
        oracle = dense_eig_oracle(sysm, Placement(pick))
        assert direct == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_objective_matches_oracle_when_h_u_is_tall(ieee34_system):
    # K > B/2 with single-phase buses sensed: H_u has fewer columns than live
    # rows, so u is not G's bottom eigenvector but the one just above G's
    # structural zero eigenvalues, and the rows of absent phases drop out.
    # Most such placements have a rank-deficient H_u; there u comes from the
    # SVD, as in the oracle, and both kinds must be among those compared.
    rng = np.random.default_rng(11)
    ids = ieee34_system.feeder.bus_ids
    partial = set(ids) - set(three_phase_buses(ieee34_system))
    gaps = []
    for _ in range(400):
        k = int(rng.integers(len(ids) // 2 + 1, len(ids)))
        pick = Placement(tuple(int(b) for b in rng.choice(ids, size=k, replace=False)))
        part = partition(ieee34_system, pick)
        live = np.any(part.H_u != 0, axis=1)
        if not (partial & set(pick.sensor_buses)
                and part.H_u.shape[1] < np.count_nonzero(live) < len(live)):
            continue
        direct = objective(ieee34_system, pick)
        oracle = dense_eig_oracle(ieee34_system, pick)
        assert direct == pytest.approx(oracle, rel=1e-10, abs=1e-12)
        lam = np.linalg.svd(part.H_u[live], compute_uv=False) ** 2
        gaps.append(min(lam[-1], lam[-2] - lam[-1]) / lam[0])
        if len(gaps) == 12:
            break
    assert len(gaps) == 12
    assert min(gaps) < 1e-7 < max(gaps)


@pytest.mark.parametrize("lam_min", [1e-3, 1e-5, 1e-9, 1e-13])
def test_smallest_left_singular_vector_small_gap(lam_min):
    # A tall h_u with lambda_min = lam_min * lambda_max and the next eigenvalue
    # 4x above it. Below a gap of 1e-7 lambda_max the eigensolve of the Gram
    # matrix cannot tell sigma_min^2 from its structural zeros, and the SVD
    # takes over; either way u is the SVD's to 1e-9 in norm, up to phase.
    from gridwatch.central import smallest_left_singular_vector as svd_vector
    from gridwatch.placement import smallest_left_singular_vector
    rng = np.random.default_rng(2)
    n, n_u = 40, 25
    q_l, _ = np.linalg.qr(rng.normal(size=(n, n_u)) + 1j * rng.normal(size=(n, n_u)))
    q_r, _ = np.linalg.qr(rng.normal(size=(n_u, n_u)) + 1j * rng.normal(size=(n_u, n_u)))
    sigma = np.sqrt(np.concatenate([np.geomspace(1.0, 0.1, n_u - 2),
                                    [4 * lam_min, lam_min]]))
    h_u = (q_l * sigma) @ q_r.conj().T
    u = smallest_left_singular_vector(h_u, np.ones(n, dtype=bool), np.ones(n_u, dtype=bool),
                                      h_u @ h_u.conj().T)
    ref, _ = svd_vector(h_u)
    phase = np.vdot(ref, u) / abs(np.vdot(ref, u))
    assert np.linalg.norm(u - phase * ref) < 1e-9
    assert np.linalg.norm(h_u.conj().T @ u) == pytest.approx(np.sqrt(lam_min), rel=1e-6)


@pytest.mark.parametrize("touch", [True, False])
@pytest.mark.parametrize("mult", range(1, 7))
def test_downdated_vector_synthetic_spectra(mult, touch):
    # diag(lam) - c c^H with lam's bottom eigenvalue tied `mult` times, past
    # the Ritz step's free coordinates, and c touching or missing that block.
    # A certified vector is eigh's, up to phase; the gap decides certification.
    # Three more downdates of the same lam join c in one stack, and each gets
    # the vector, bit for bit, or the refusal it gets solved alone.
    rng = np.random.default_rng([mult, touch])
    more = np.random.default_rng([mult, touch, 1])
    n, certified = 40, 0
    for m, scale, _ in itertools.product((6, 18), (0.3, 0.01), range(20)):
        lam = np.concatenate([np.ones(mult), np.sort(rng.uniform(1.5, 10.0, n - mult))])
        cs = [scale * (g.normal(size=(n, m)) + 1j * g.normal(size=(n, m)))
              for g in (rng, more, more, more)]
        if not touch:
            for c in cs:
                c[:mult] = 0
        with np.errstate(all="raise"):
            stacked = _downdated_vectors(lam, np.eye(n), cs)
            alone = [_downdated_vectors(lam, np.eye(n), [c])[0] for c in cs]
        for c, u, v in zip(cs, stacked, alone):
            assert (u is None) == (v is None)
            if u is not None:
                assert np.array_equal(u, v)
            ev, vecs = np.linalg.eigh(np.diag(lam) - c @ c.conj().T)
            if ev[1] - ev[0] <= 1e-7 * lam[-1]:
                assert u is None
            elif u is not None:
                assert np.all(np.isfinite(u))
                phase = np.vdot(u, vecs[:, 0]) / abs(np.vdot(u, vecs[:, 0]))
                assert np.linalg.norm(phase * u - vecs[:, 0]) < 1e-10
                certified += 1
    assert certified > 0


def svd_reference_greedy(system, k):
    """Greedy over `dense_eig_oracle`; exact ties go to the lowest bus id.

    Every candidate's objective from the round's `RoundBase` must agree with
    the oracle to 1e-10, whichever path (downdate or full solve) it takes.
    """
    chosen = ()
    for _ in range(k):
        base = RoundBase(system, chosen)
        costs = []
        for b in system.feeder.bus_ids:
            if b in chosen:
                continue
            p = Placement(chosen + (b,))
            costs.append((dense_eig_oracle(system, p), b))
            assert objective(system, p, base) == pytest.approx(costs[-1][0], rel=1e-10)
        chosen += (min(costs)[1],)
    final = Placement(chosen)
    return final.sensor_buses, dense_eig_oracle(system, final)


def test_greedy_matches_svd_reference_ieee34(ieee34_system):
    # exhaustive K=3 is pinned to the greedy by acceptance criterion 1
    buses, cost = svd_reference_greedy(ieee34_system, 3)
    assert buses == (2, 23, 29)
    res = greedy_place(ieee34_system, 3)
    assert res.placement.sensor_buses == buses
    assert res.objective == pytest.approx(cost, rel=1e-9)
    # single-phase candidates leave rows of H_u empty, which the downdate
    # does not handle: those take the full eigensolve
    assert res.eigensolves > 0


def test_greedy_matches_svd_reference_ieee123_reduced(ieee123):
    sysm = build_system(reduce_laterals(ieee123))
    buses, cost = svd_reference_greedy(sysm, 4)
    assert buses == (5, 40, 53, 67)
    res = greedy_place(sysm, 4)
    assert res.placement.sensor_buses == buses
    assert res.objective == pytest.approx(cost, rel=1e-9)
    assert res.evaluations == 70 + 69 + 68 + 67
    assert res.eigensolves <= 0.05 * res.evaluations


def test_greedy_ieee123_reduced_k20_path(ieee123):
    # the whole K = 20 greedy path; acceptance criterion 2 checks only that it
    # beats random placements
    res = greedy_place(build_system(reduce_laterals(ieee123)), 20)
    assert res.placement.sensor_buses == (3, 5, 12, 26, 27, 32, 33, 34, 35, 40, 41, 42,
                                          47, 53, 54, 55, 56, 62, 67, 70)
    assert res.objective == pytest.approx(4.184679451647105, rel=1e-9)
    assert res.evaluations == sum(70 - r for r in range(20))
    print(f"greedy ieee123-reduced K=20: {res.elapsed:.2f} s, "
          f"{res.eigensolves} of {res.evaluations} candidates by full eigensolve")


# First picks of the greedy ieee123-reduced K=20 path, in the order chosen.
_K20_ORDER = (53, 5, 40, 67, 12, 33, 56, 62, 27, 47, 3, 70)
# One side of the bipartition of the ieee123-reduced tree, less bus 70: no
# bus has itself and all its neighbours sensed, so no row of H_u goes empty.
_IEEE123_HALF = (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 22, 24, 26, 28, 30, 32, 34, 36, 38,
                 40, 42, 43, 45, 47, 49, 51, 53, 55, 56, 58, 60, 62, 64, 66, 68)


@pytest.mark.parametrize("case, feeder, base_buses, added", [
    # G = H H^H has a triple eigenvalue at 1, from the null space of Y
    ("triple", "ieee123-reduced", (), (5,)),
    ("triple", "ieee123-reduced", (), (70,)),
    # round 8 of the K=20 path, with bus 4 added
    ("downdate", "ieee123-reduced", _K20_ORDER[:8], (4,)),
    # rank-18 downdates of H H^H, as in the exhaustive search
    ("downdate", "ieee123-reduced", (), (5, 40, 53)),
    ("downdate", "ieee123-reduced", (), (3, 27, 70)),
    # sigma_min of H_u is degenerate: the inertia count must refuse the downdate
    ("degenerate", "ieee123-reduced", _K20_ORDER, (68,)),
    # 36 sensors leave 204 unsensed columns for 210 live rows
    ("tall", "ieee123-reduced", _IEEE123_HALF, (70,)),
    # single-phase buses empty the rows of their absent phases
    ("dead rows", "ieee34", (), (5,)),
    ("dead rows", "ieee34", (), (12,)),
    ("dead rows", "ieee34", (), (34,)),
])
def test_round_base_objective_matches_oracle(ieee34_system, ieee123, case, feeder,
                                             base_buses, added):
    sysm = ieee34_system if feeder == "ieee34" else build_system(reduce_laterals(ieee123))
    base = RoundBase(sysm, base_buses)
    p = Placement(base_buses + added)
    part = partition(sysm, p)
    live = np.any(part.H_u != 0, axis=1)
    assert np.array_equal(live, base.live) == (case != "dead rows")
    assert (part.H_u.shape[1] < np.count_nonzero(live)) == (case == "tall")
    if case == "triple":
        assert np.all(abs(base.lam[:3] - 1) < 1e-12) and base.lam[3] - 1 > 1e-5
    assert objective(sysm, p, base) == pytest.approx(dense_eig_oracle(sysm, p), rel=1e-10)
    assert base.eigensolves == (0 if case in ("triple", "downdate") else 1)


def test_round_base_refuses_a_placement_without_its_buses(ieee34_system):
    # the round's buses are the placement's sensed columns the base leaves
    # out of G_r; a placement that lacks one would be read from a wrong G
    base = RoundBase(ieee34_system, (7,))
    with pytest.raises(ValueError, match=r"lacks the round's buses \(7,\)"):
        objective(ieee34_system, Placement((19, 31)), base)
    assert objective(ieee34_system, Placement((7, 19, 31)), base) == pytest.approx(
        objective(ieee34_system, Placement((7, 19, 31))), rel=1e-10)


def _solve_recorded(solve, system, k):
    """`solve(system, k)` and the objective of every placement it evaluated."""
    seen = []
    inner = placement.objective

    def record(system, p, base=None):
        seen.append((p.sensor_buses, inner(system, p, base)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(placement, "objective", record)
        res = solve(system, k)
    return (res.placement, res.objective, res.evaluations, res.eigensolves), seen


@pytest.fixture(scope="module")
def stack_cut_cases(ieee34_system, ieee123):
    return {"greedy ieee34 K=3": (greedy_place, ieee34_system, 3),
            "exhaustive ieee34 K=3": (exhaustive_place, ieee34_system, 3),
            "greedy ieee123-reduced K=4": (greedy_place,
                                           build_system(reduce_laterals(ieee123)), 4)}


@pytest.fixture(scope="module")
def stack_cut_reference(stack_cut_cases):
    return {name: _solve_recorded(*case) for name, case in stack_cut_cases.items()}


@pytest.mark.parametrize("cut", [1, 7])
def test_stack_cut_invariance(monkeypatch, stack_cut_cases, stack_cut_reference, cut):
    # Like the engines' block cuts: where the candidates of a round or an
    # exhaustive chunk are cut into stacks changes no bit of any objective,
    # nor the placement, its objective, evaluations or eigensolves. The
    # reference runs at the default cut.
    assert placement._STACK not in (1, 7)
    monkeypatch.setattr(placement, "_STACK", cut)
    for name, case in stack_cut_cases.items():
        assert _solve_recorded(*case) == stack_cut_reference[name], name


def test_objective_recompute_invariant(ieee34_system):
    res = greedy_place(ieee34_system, 2)
    again = objective(ieee34_system, res.placement)
    assert res.objective == pytest.approx(again, rel=1e-12)


def test_objective_full_observability_zero(ieee34_system):
    assert objective(ieee34_system, Placement(ieee34_system.feeder.bus_ids)) == 0.0


def test_greedy_matches_exhaustive_small_toy():
    # K = B-1 on a 3-bus instance where the greedy path is globally optimal
    # (on symmetric chains the greedy first pick lands mid-feeder and the
    # optimum is the endpoint pair, so those never agree)
    feeder = random_radial_feeder(np.random.default_rng(6), n_bus=3, p_lateral=0.5)
    sysm = build_system(feeder)
    g = greedy_place(sysm, 2)
    e = exhaustive_place(sysm, 2)
    assert g.placement == e.placement
    assert g.objective == pytest.approx(e.objective, rel=1e-9)


def test_greedy_deterministic(ieee34_system):
    a = greedy_place(ieee34_system, 3)
    b = greedy_place(ieee34_system, 3)
    assert a.placement == b.placement
    assert a.objective == b.objective


def test_greedy_evaluation_count():
    sysm = build_system(toy_feeder(6))
    k = 3
    res = greedy_place(sysm, k)
    n = sysm.bus_count
    assert res.evaluations == sum(n - i for i in range(k))


def test_greedy_k_bounds(ieee34_system):
    with pytest.raises(ValueError):
        greedy_place(ieee34_system, 0)
    with pytest.raises(ValueError):
        greedy_place(ieee34_system, 99)


@pytest.mark.parametrize("solve", [greedy_place, exhaustive_place,
                                   lambda s, k, c=None: random_place(s, k, 0, c)])
def test_every_solver_checks_k(ieee34_system, solve):
    for k, cands, n in ((0, None, 34), (35, None, 34), (40, None, 34), (3, (7, 7, 19), 2)):
        with pytest.raises(ValueError, match=f"k={k} outside candidate set of {n}$"):
            solve(ieee34_system, k, cands)


def test_duplicate_candidates_counted_once(ieee34_system):
    res = greedy_place(ieee34_system, 2, (7, 7, 19))
    assert res.placement.sensor_buses == (7, 19)
    assert res.evaluations == 3
    assert exhaustive_place(ieee34_system, 2, (19, 7, 19)).evaluations == 1
    assert set(random_place(ieee34_system, 2, 0, (7, 19, 7)).placement.sensor_buses) == {7, 19}


def test_exhaustive_k1_two_bus_scan():
    sysm = build_system(toy_feeder(2, y=0.8 - 0.2j))
    res = exhaustive_place(sysm, 1)
    best = min((objective(sysm, Placement((b,))), b) for b in sysm.feeder.bus_ids)
    assert res.objective == pytest.approx(best[0])
    assert res.placement.sensor_buses == (best[1],)


def test_exact_solvers_report_the_same_objective(ieee34_system):
    # both report the objective of their placement solved without a round base,
    # not the downdated value that ranked it
    g, e = greedy_place(ieee34_system, 1), exhaustive_place(ieee34_system, 1)
    assert g.placement == e.placement
    assert g.objective == e.objective
    e = exhaustive_place(ieee34_system, 2)
    assert e.objective == objective(ieee34_system, e.placement)


def test_exhaustive_budget_refused(ieee34_system):
    with pytest.raises(BudgetError, match="5984"):
        exhaustive_place(ieee34_system, 3, budget=1000)


def test_exhaustive_never_above_greedy():
    rng = np.random.default_rng(3)
    for _ in range(5):
        feeder = random_radial_feeder(rng, n_bus=6, p_lateral=0.0)
        sysm = build_system(feeder)
        g = greedy_place(sysm, 2)
        e = exhaustive_place(sysm, 2)
        assert e.objective <= g.objective * (1 + 1e-12)


def test_random_reproducible(ieee34_system):
    a = random_place(ieee34_system, 3, seed=42)
    b = random_place(ieee34_system, 3, seed=42)
    assert a.placement == b.placement


def test_random_full_placement_zero(ieee34_system):
    res = random_place(ieee34_system, ieee34_system.bus_count, seed=1)
    assert res.objective == 0.0


def test_monotone_chain_random_instance():
    rng = np.random.default_rng(8)
    feeder = random_radial_feeder(rng, n_bus=7, p_lateral=0.0)
    sysm = build_system(feeder)
    g = greedy_place(sysm, 2)
    e = exhaustive_place(sysm, 2)
    med = float(np.median([random_place(sysm, 2, s).objective for s in range(30)]))
    assert e.objective <= g.objective * (1 + 1e-12)
    assert g.objective <= med * (1 + 1e-12)


def test_three_phase_candidates(ieee34_system):
    cands = three_phase_buses(ieee34_system)
    assert 7 in cands and 19 in cands
    assert 5 not in cands and 12 not in cands  # single-phase lateral ends
    res = greedy_place(ieee34_system, 2, cands)
    assert all(b in cands for b in res.placement.sensor_buses)
    shuffled = tuple(int(b) for b in np.random.default_rng(4).permutation(cands))
    for perm in (cands[::-1], shuffled):
        again = greedy_place(ieee34_system, 2, perm)
        assert (again.placement, again.objective, again.evaluations) == \
            (res.placement, res.objective, res.evaluations)


def _graph_distances(feeder):
    # BFS hop distances over the feeder tree
    adj = {b.id: [] for b in feeder.buses}
    for l in feeder.lines:
        adj[l.from_bus].append(l.to_bus)
        adj[l.to_bus].append(l.from_bus)

    def dist(a, b):
        seen = {a: 0}
        q = [a]
        while q:
            cur = q.pop(0)
            if cur == b:
                return seen[cur]
            for n in adj[cur]:
                if n not in seen:
                    seen[n] = seen[cur] + 1
                    q.append(n)
        return None

    return dist


def test_scatter_report(ieee34_system):
    feeder = ieee34_system.feeder
    dist = _graph_distances(feeder)

    def min_pairwise(buses):
        buses = list(buses)
        return min(dist(a, b) for i, a in enumerate(buses) for b in buses[i + 1:])

    g = greedy_place(ieee34_system, 3)
    g_min = min_pairwise(g.placement.sensor_buses)
    rand_mins = [min_pairwise(random_place(ieee34_system, 3, s).placement.sensor_buses)
                 for s in range(50)]
    print(f"scatter report: greedy min pairwise hop distance {g_min}; "
          f"random mean {np.mean(rand_mins):.2f} (qualitative, not asserted)")
