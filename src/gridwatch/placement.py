"""Sensor siting: min-max subspace objective with greedy/exhaustive/random solvers.

The objective for a candidate placement is lambda_max(W) with
W = H_a^H u u^H H_a, u the smallest-singular left vector of H_u. W is a
rank-one outer product, so lambda_max equals ||u^H H_a||^2 -- minimizing it
minimizes the worst-case steady-state metric over unit measurement vectors.

Every solver evaluates it through `objective`, from the Gram matrix
G = H_u H_u^H with one Hermitian eigensolve (`smallest_left_singular_vector`)
rather than a thin SVD of H_u. Rows of H with no nonzero entry in an
unsensed column are dropped first, as `central.smallest_left_singular_vector`
drops them. With n_live rows left and n_u unsensed columns, u is the
eigenvector at ascending index max(0, n_live - n_u): when H_u has fewer
columns than live rows, G has n_live - n_u structural zero eigenvalues below
sigma_min^2, and this is the vector the thin SVD returns. The greedy forms G
once per round for the buses it has chosen and subtracts each candidate's
six columns (G - C_b C_b^H); the exhaustive search subtracts each
combination's sensed columns from H H^H.

Accuracy. Forming G squares the condition number: the eigenvector's error
is about eps * lambda_max / gap, where gap is the distance from sigma_min^2
to the nearest other eigenvalue of G, against eps * sigma_max /
(sigma_2 - sigma_min) for the SVD. When H_u is tall the structural zeros
count as neighbours, so the gap is at most sigma_min^2. Where the gap is
below _GAP_REL = 1e-7 lambda_max (for a tall H_u, whenever
sigma_min / sigma_max < 3.2e-4), u comes from the thin SVD of H_u instead,
which bounds the eigensolve's share of the error near 1e-9. Compared with
the SVD on every placement of the greedy path of ieee123 with laterals
reduced at K=20 (1210, of which the SVD takes 16), every ieee34 K=3
combination (5984; 149) and 900 random ieee34 placements with
18 <= K <= 33 (731), the objective agreed to 7e-11 relative. The SVD stays
the central model's solver.

Still open: where sigma_min is degenerate (a rank-deficient H_u or a tied
sigma_min), u and hence the objective depend on the basis the SVD picks;
two SVDs of the same placement agree, but eigensolve and SVD differed by up
to 47% on the K=20 path above and 380x on the random ieee34 placements. The
K=20 greedy picks none of them. A basis-free definition,
lambda_max(U^H H_a H_a^H U) over the subspace U of near-minimal left
singular vectors, is not implemented.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import central
from .model import Placement, SystemMatrix, entry_columns, partition

_TIE_REL = 1e-12
# Smallest distance, as a share of lambda_max(G), between the eigenvalue of u
# and its neighbours for the eigensolve's vector to be used; closer than
# that, the thin SVD of H_u is used. See "Accuracy" in the module docstring.
_GAP_REL = 1e-7


class BudgetError(RuntimeError):
    """Exhaustive enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class PlacementResult:
    placement: Placement
    objective: float
    solver: str
    elapsed: float
    evaluations: int = 0


def smallest_left_singular_vector(H: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                                  gram: np.ndarray) -> np.ndarray:
    """Left singular vector for the smallest singular value of
    h_u = H[rows][:, cols], given `gram` = h_u h_u^H. No row of h_u is zero.

    One Hermitian eigensolve of `gram`; u is the eigenvector at ascending
    index max(0, n - n_u) for an n x n_u h_u. Where that eigenvalue is not
    separated from its neighbours by _GAP_REL * lambda_max, u is taken from
    the thin SVD of h_u (`central.smallest_left_singular_vector`).
    """
    n, n_u = gram.shape[0], int(np.count_nonzero(cols))
    lam, vecs = np.linalg.eigh(gram)
    i = max(0, n - n_u)
    below = lam[i] - lam[i - 1] if i else math.inf
    above = lam[i + 1] - lam[i] if i + 1 < n else math.inf
    if min(below, above) > _GAP_REL * lam[-1]:
        return vecs[:, i]
    return central.smallest_left_singular_vector(H[np.ix_(rows, cols)])[0]


def _unsensed_gram(system: SystemMatrix, buses: tuple[int, ...]) -> np.ndarray:
    """H_r H_r^H, H_r the columns of H that none of `buses` senses."""
    keep = np.ones(system.H.shape[1], dtype=bool)
    keep[entry_columns(system, buses)] = False
    h_r = system.H[:, keep]
    return h_r @ h_r.conj().T


def objective(system: SystemMatrix, placement: Placement,
              gram: np.ndarray | None = None, gram_buses: tuple[int, ...] = ()) -> float:
    """lambda_max of the rank-one worst-case form for one placement.

    Without `gram`, G = H_u H_u^H is formed from `partition`. The solvers pass
    `gram` = H_r H_r^H instead, H_r the columns of H that none of
    `gram_buses` (a subset of the placement) senses; the columns of the
    placement's other buses are subtracted from it.
    """
    if placement.k >= system.bus_count:
        return 0.0
    H = system.H
    if gram is None:
        part = partition(system, placement)
        gram = part.H_u @ part.H_u.conj().T
        sensed_columns = part.avail_columns
    else:
        added = tuple(b for b in placement.sensor_buses if b not in gram_buses)
        c = H[:, entry_columns(system, added)]
        gram = gram - c @ c.conj().T
        sensed_columns = entry_columns(system, placement.sensor_buses)
    sensed = np.zeros(H.shape[1], dtype=bool)
    sensed[sensed_columns] = True
    unsensed = ~sensed
    live = np.any(H[:, unsensed] != 0, axis=1)
    u = smallest_left_singular_vector(H, live, unsensed, gram[np.ix_(live, live)])
    row = np.conj(u) @ H[np.ix_(live, sensed)]
    return float(np.vdot(row, row).real)


def three_phase_buses(system: SystemMatrix) -> tuple[int, ...]:
    f = system.feeder
    return tuple(b for b in f.bus_ids if f.bus_phases(b).is_three_phase)


def greedy_place(system: SystemMatrix, k: int,
                 candidates: tuple[int, ...] | None = None) -> PlacementResult:
    """K rounds of best-single-addition; ties go to the lowest bus id."""
    cands = sorted(candidates if candidates is not None else system.feeder.bus_ids)
    if not 1 <= k <= len(cands):
        raise ValueError(f"k={k} outside candidate set of {len(cands)}")
    t0 = time.perf_counter()
    chosen: tuple[int, ...] = ()
    evals = 0
    for _ in range(k):
        gram = _unsensed_gram(system, chosen)
        best_bus, best_cost = None, math.inf
        for b in cands:
            if b in chosen:
                continue
            cost = objective(system, Placement(chosen + (b,)), gram, chosen)
            evals += 1
            if best_bus is None or cost < best_cost - _TIE_REL * max(abs(cost), abs(best_cost)):
                best_bus, best_cost = b, cost
        chosen += (best_bus,)
    final = Placement(chosen)
    return PlacementResult(placement=final, objective=objective(system, final),
                           solver="greedy", elapsed=time.perf_counter() - t0,
                           evaluations=evals)


def exhaustive_place(system: SystemMatrix, k: int,
                     candidates: tuple[int, ...] | None = None,
                     budget: int = 2_000_000) -> PlacementResult:
    cands = sorted(candidates if candidates is not None else system.feeder.bus_ids)
    n = math.comb(len(cands), k)
    if n > budget:
        raise BudgetError(f"C({len(cands)},{k}) = {n} exceeds budget {budget}")
    t0 = time.perf_counter()
    gram = _unsensed_gram(system, ())
    best, best_cost = None, math.inf
    evals = 0
    for combo in combinations(cands, k):
        cost = objective(system, Placement(combo), gram)
        evals += 1
        if best is None or cost < best_cost - _TIE_REL * max(abs(cost), abs(best_cost)):
            best, best_cost = combo, cost
    return PlacementResult(placement=Placement(best), objective=best_cost,
                           solver="exhaustive", elapsed=time.perf_counter() - t0,
                           evaluations=evals)


def random_place(system: SystemMatrix, k: int, seed: int,
                 candidates: tuple[int, ...] | None = None) -> PlacementResult:
    cands = sorted(candidates if candidates is not None else system.feeder.bus_ids)
    rng = np.random.default_rng(seed)
    combo = tuple(int(b) for b in rng.choice(cands, size=k, replace=False))
    t0 = time.perf_counter()
    p = Placement(combo)
    cost = objective(system, p)
    return PlacementResult(placement=p, objective=cost, solver="random",
                           elapsed=time.perf_counter() - t0, evaluations=1)
