"""Sensor siting: min-max subspace objective with greedy/exhaustive/random solvers.

The objective for a candidate placement is lambda_max(W) with
W = H_a^H u u^H H_a, u the smallest-singular left vector of H_u. W is a
rank-one outer product, so lambda_max equals ||u^H H_a||^2 -- minimizing it
minimizes the worst-case steady-state metric over unit measurement vectors.

Every solver evaluates it through `objective`, from the Gram matrix
G = H_u H_u^H rather than a thin SVD of H_u. Rows of H with no nonzero entry
in an unsensed column are dropped first, as
`central.smallest_left_singular_vector` drops them. With n_live rows left
and n_u unsensed columns, u is the eigenvector at ascending index
max(0, n_live - n_u): when H_u has fewer columns than live rows, G has
n_live - n_u structural zero eigenvalues below sigma_min^2, and this is the
vector the thin SVD returns.

Round eigendecomposition. The greedy builds one `RoundBase` per round for
the buses it has chosen: G_r = H_r H_r^H over the columns they leave
unsensed, and one Hermitian eigensolve G_r = Q diag(lam) Q^H of its live
block. The exhaustive search builds one for no buses, G_r = H H^H. A
candidate senses m more columns C (m = 6 per added bus), so its
G = G_r - C C^H = Q (diag(lam) - w w^H) Q^H with w = Q^H C, n_live x m.
Its bottom eigenpair comes from Rayleigh-Ritz steps in the Q basis on
span{e_0..e_3} + (lam - sigma)^-1 w[4:], each shifted by the Ritz value
theta of the step before, sigma = min(theta, lam_0 - tol) with
tol = 1e3 eps lambda_max(G_r), from the smallest Rayleigh quotient
min_j(lam_j - |w_j|^2) until theta moves by at most eps lambda_max(G_r).
Every theta is an upper bound on the smallest eigenvalue mu of G (Parlett,
The Symmetric Eigenvalue Problem, 1998, ch. 11), and at sigma = mu the
subspace holds the exact vector, whose coordinates past the first four are
(lam - mu)^-1 w times an m-vector (the secular form of Golub 1973). The
clamp keeps every divisor at least tol where lam_0 is tied more than four
times. A downdate took 4.0 steps on average and at most 6 on the greedy
ieee123-reduced K=20 path, 4.2 and 5 at K=4, and 3.8 and 5 over the
exhaustive ieee34 K=3 combinations. The result is used only when it is
certified: its residual is at most tol, and the Haynsworth inertia count
N(x) = #{lam_j < x} + #{eigenvalues of w^H (lam - x)^-1 w above 1}, the
number of eigenvalues of G below x, gives N(theta - tol) = 0 and
N(theta + _GAP_REL lambda_max(G_r)) = 1. As lambda_max(G_r) >=
lambda_max(G), that is the gap test below, so the downdate returns only
where the full eigensolve would also have kept its own vector. A candidate
that fails the certificate, that empties rows the round still has, or
whose H_u is tall, takes the full eigensolve of G_r - C C^H
(`smallest_left_singular_vector`), with its SVD fallback;
`PlacementResult.eigensolves` counts them. A Ritz step costs a QR of the
n_live x m block and an eigensolve of order m + 4, against O(n_live^3) for
the full eigensolve.

Stacks. The solvers hand a round's candidates to `RoundBase.downdate`: the
greedy all of a round's, the exhaustive search its combinations in chunks
of _STACK. Their downdates are solved together, in stacks of at most
_STACK candidates, which bounds the memory of the n_live x m blocks. Each
Ritz step is one stacked QR and one stacked eigensolve over the candidates
still iterating; each candidate leaves the stack at its own last step, and
the residuals and both inertia counts are then formed for the whole stack.
numpy computes every item of a stacked `qr`, `eigh`, `eigvalsh` and
`matmul` as the call on that item alone does, so each candidate gets the
bits it gets solved alone, whatever the stack holds: so it was on every
candidate of the greedy paths below and of the exhaustive ieee34 K=3
search, and the tests check it on synthetic spectra and at stack cuts of
1 and 7, under a given number of BLAS threads. Products fused across
the stack (Q against all the Ritz vectors in one gemm, `einsum`) round
differently, so u = Q y and the objective's last products stay per
candidate. `objective` reads the candidate's result, or solves a placement
the round was not given as a stack of one.

Accuracy. Forming G squares the condition number: the eigenvector's error
is about eps * lambda_max / gap, where gap is the distance from sigma_min^2
to the nearest other eigenvalue of G, against eps * sigma_max /
(sigma_2 - sigma_min) for the SVD. When H_u is tall the structural zeros
count as neighbours, so the gap is at most sigma_min^2. Where the gap is
below _GAP_REL = 1e-7 lambda_max (for a tall H_u, whenever
sigma_min / sigma_max < 3.2e-4), u comes from the thin SVD of H_u instead,
which bounds the eigensolve's share of the error near 1e-9, downdated or
not. Compared with the SVD on every candidate of the greedy paths of ieee123
with laterals reduced at K=4 (274 candidates, none solved in full) and K=20
(1210; 36 solved in full for emptied rows, 16 for the certificate, all 16
then by the SVD), and of ieee34 at K=3 (99; 29), the objective agreed to
4.5e-11 relative under one BLAS thread. Of the 5984 ieee34 K=3
combinations, 3518 are solved in full for emptied rows and 91 for the
certificate; the downdated ones agreed to 4.4e-10, the worst at
(16, 17, 21), whose gap is 1.03e-7 lambda_max. The stacks reproduce the
one-candidate solve bit for bit, so these figures hold for them. The SVD
stays the central model's solver.

Still open: where sigma_min is degenerate (a rank-deficient H_u or a tied
sigma_min), u and hence the objective depend on the basis the SVD picks.
Two SVDs of the same placement agree only under the same number of BLAS
threads: the K=20 path's candidate (3, 5, 12, 27, 33, 40, 47, 53, 56, 62,
67, 68, 70) reads 169.0 with one OpenBLAS thread and 239.1 with two.
Eigensolve and SVD differed by up to 47% on the K=20 path above and 380x on
the random ieee34 placements. The K=20 greedy picks none of them. A
basis-free definition, lambda_max(U^H H_a H_a^H U) over the subspace U of
near-minimal left singular vectors, is not implemented.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from . import central
from .model import Placement, SystemMatrix, entry_columns, partition

_TIE_REL = 1e-12
# Smallest distance, as a share of lambda_max(G), between the eigenvalue of u
# and its neighbours for the eigensolve's vector to be used; closer than
# that, the thin SVD of H_u is used. See "Accuracy" in the module docstring.
_GAP_REL = 1e-7
# A downdated eigenpair is used when its residual is at most _CERT_REL
# lambda_max(G_r). It takes at most _RITZ_STEPS Rayleigh-Ritz steps, each of
# which leaves the first _RITZ_FREE coordinates free. See "Round
# eigendecomposition" in the module docstring.
_EPS = np.finfo(float).eps
_CERT_REL = 1e3 * _EPS
_RITZ_STEPS = 12
_RITZ_FREE = 4
# Most candidates whose downdates are solved as one stack; bounds the memory
# of an exhaustive chunk.
_STACK = 16


class BudgetError(RuntimeError):
    """Exhaustive enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class PlacementResult:
    placement: Placement
    objective: float
    solver: str
    elapsed: float
    evaluations: int = 0
    eigensolves: int = 0  # evaluations that took a full eigensolve, not a downdate


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


class RoundBase:
    """G_r = H_r H_r^H, H_r the columns of H that none of `buses` senses, and
    one eigendecomposition (lam ascending, vecs) of its live block.

    `downdate` solves, as stacks, the bottom eigenvectors of the placements
    that add buses to `buses`; `objective` evaluates such placements from
    them, and counts in `eigensolves` those it had to solve in full.
    """

    def __init__(self, system: SystemMatrix, buses: tuple[int, ...] = ()):
        keep = np.ones(system.H.shape[1], dtype=bool)
        keep[entry_columns(system, buses)] = False
        h_r = system.H[:, keep]
        self.system = system
        self.buses = buses
        self.gram = h_r @ h_r.conj().T
        self.row_nonzeros = np.count_nonzero(h_r, axis=1)
        self.live = self.row_nonzeros > 0
        self.lam, self.vecs = np.linalg.eigh(self.gram[np.ix_(self.live, self.live)])
        self.eigensolves = 0
        # added buses -> (their columns c of H, the rows live once they are
        # sensed, the bottom eigenvector of G_r - c c^H on those rows or None)
        self.solved: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}

    def downdate(self, additions) -> None:
        """Fill `solved`, in place of what it held, for the placements that
        add each tuple of `additions` to `buses`, their downdates solved in
        stacks of at most _STACK. The vector is None where the downdate does
        not apply or is not certified."""
        H = self.system.H
        unsensed = H.shape[1] - len(entry_columns(self.system, self.buses))
        self.solved, todo = {}, []
        for added in additions:
            c = H[:, entry_columns(self.system, added)]
            live = self.row_nonzeros > np.count_nonzero(c, axis=1)
            self.solved[added] = (c, live, None)
            # the downdate needs the round's live rows and a wide H_u (u at
            # ascending index 0); otherwise G is solved in full
            if (np.array_equal(live, self.live)
                    and unsensed - c.shape[1] >= np.count_nonzero(live)):
                todo.append(added)
        for s in range(0, len(todo), _STACK):
            stack = todo[s:s + _STACK]
            ys = _downdated_vectors(self.lam, self.vecs,
                                    [self.solved[a][0][self.live] for a in stack])
            for added, y in zip(stack, ys):
                c, live, _ = self.solved[added]
                self.solved[added] = (c, live, None if y is None else self.vecs @ y)


def _downdated_vectors(lam: np.ndarray, vecs: np.ndarray,
                       cs: list[np.ndarray]) -> list[np.ndarray | None]:
    """Bottom eigenvector of vecs diag(lam) vecs^H - c c^H for each c of `cs`,
    all of one shape, in the vecs basis, or None where the result cannot be
    certified; see "Round eigendecomposition" above. Every step runs as one
    stack over the candidates still iterating, and each candidate's bits are
    those it gets solved alone."""
    # nz: the rows c touches, those of the added buses and their neighbours
    w = np.stack([vecs[nz].conj().T @ c[nz]
                  for c in cs for nz in [np.flatnonzero(np.any(c != 0, axis=1))]])
    p = min(_RITZ_FREE, w.shape[1])
    tol = _CERT_REL * lam[-1]
    floor = lam[0] - tol

    # Rayleigh-Ritz on span{e_0..e_{p-1}} + (lam - sigma)^-1 w[p:], repeated
    # with its own value as the next shift; sigma <= lam[0] - tol keeps every
    # divisor at least tol even where lam[0] is tied more than p times. A
    # candidate leaves the stack at its last step with its Ritz vector y.
    sigma = np.minimum(np.min(lam - np.sum(abs(w) ** 2, axis=2), axis=1), floor)
    theta = np.full(len(w), np.inf)
    y = np.empty(w.shape[:2], dtype=w.dtype)
    run = np.arange(len(w))  # the candidates still iterating
    for step in range(_RITZ_STEPS):
        q = np.linalg.qr(w[run, p:] / (lam[p:] - sigma[run, None])[:, :, None]).Q
        qh = q.conj().transpose(0, 2, 1)
        bw = np.concatenate([w[run, :p], qh @ w[run, p:]], axis=1)
        a = -(bw @ bw.conj().transpose(0, 2, 1))
        a[:, :p, :p] += np.diag(lam[:p])
        a[:, p:, p:] += qh @ (lam[p:, None] * q)
        ritz, s = np.linalg.eigh(a)
        last, theta[run] = theta[run], ritz[:, 0]
        finite = np.isfinite(ritz[:, 0])
        stop = (~finite | (abs(np.where(finite, ritz[:, 0], 0.0) - last) <= _EPS * lam[-1])
                | (step == _RITZ_STEPS - 1))
        y[run[stop], :p] = s[stop, :p, 0]
        y[run[stop], p:] = (q[stop] @ s[stop, p:, :1])[:, :, 0]
        sigma[run] = np.minimum(ritz[:, 0], floor)
        run = run[~stop]
        if not len(run):
            break

    ok = np.flatnonzero(np.isfinite(theta))
    wo, yo = w[ok], y[ok]
    resid = (lam * yo - (wo @ (wo.conj().transpose(0, 2, 1) @ yo[:, :, None]))[:, :, 0]
             - theta[ok, None] * yo)
    norm = np.sqrt(np.vecdot(resid.real, resid.real) + np.vecdot(resid.imag, resid.imag))
    ok = ok[norm <= tol]

    # Haynsworth inertia: the eigenvalues of diag(lam) - w w^H below x are
    # #{lam_j < x} plus the eigenvalues of K(x) = w^H (lam - x)^-1 w above 1;
    # certified where none lies below theta - tol and one below
    # theta + _GAP_REL lambda_max
    def count_below(x: np.ndarray) -> np.ndarray:
        wo = w[ok]
        k = wo.conj().transpose(0, 2, 1) @ (wo / (lam - x[:, None])[:, :, None])
        return np.count_nonzero(lam < x[:, None], axis=1) + np.count_nonzero(
            np.linalg.eigvalsh(k) > 1, axis=1)

    ok = ok[(count_below(theta[ok] - tol) == 0)
            & (count_below(theta[ok] + _GAP_REL * lam[-1]) == 1)]
    out: list[np.ndarray | None] = [None] * len(w)
    for i in ok:
        out[i] = y[i]
    return out


def objective(system: SystemMatrix, placement: Placement,
              base: RoundBase | None = None) -> float:
    """lambda_max of the rank-one worst-case form for one placement.

    Without `base`, G = H_u H_u^H is formed from `partition`. The solvers pass
    a `RoundBase` of some of the placement's buses instead; the columns c of
    the placement's other buses are a downdate of it, G = G_r - c c^H, read
    from what the base's last `downdate` solved; a placement it was not
    given is solved as a stack of one.
    """
    if placement.k >= system.bus_count:
        return 0.0
    H = system.H
    sensed = np.zeros(H.shape[1], dtype=bool)
    u = None
    if base is None:
        part = partition(system, placement)
        sensed[part.avail_columns] = True
        live = np.any(part.H_u != 0, axis=1)
        gram = part.H_u @ part.H_u.conj().T
    else:
        missing = set(base.buses) - set(placement.sensor_buses)
        if missing:
            raise ValueError(f"placement {placement.sensor_buses} lacks the round's "
                             f"buses {tuple(sorted(missing))}")
        added = tuple(b for b in placement.sensor_buses if b not in base.buses)
        if added not in base.solved:
            base.downdate([added])
        c, live, u = base.solved[added]
        sensed[entry_columns(system, placement.sensor_buses)] = True
        if u is None:
            base.eigensolves += 1
            gram = base.gram - c @ c.conj().T
    if u is None:
        u = smallest_left_singular_vector(H, live, ~sensed, gram[np.ix_(live, live)])
    row = np.conj(u) @ H[np.ix_(live, sensed)]
    return float(np.vdot(row, row).real)


def three_phase_buses(system: SystemMatrix) -> tuple[int, ...]:
    f = system.feeder
    return tuple(b for b in f.bus_ids if f.bus_phases(b).is_three_phase)


def _candidates(system: SystemMatrix, k: int,
                candidates: tuple[int, ...] | None) -> list[int]:
    """Distinct candidate buses, ascending; k must be 1..their count."""
    cands = sorted(set(candidates if candidates is not None else system.feeder.bus_ids))
    if not 1 <= k <= len(cands):
        raise ValueError(f"k={k} outside candidate set of {len(cands)}")
    return cands


def greedy_place(system: SystemMatrix, k: int,
                 candidates: tuple[int, ...] | None = None) -> PlacementResult:
    """K rounds of best-single-addition; ties go to the lowest bus id."""
    cands = _candidates(system, k, candidates)
    t0 = time.perf_counter()
    chosen: tuple[int, ...] = ()
    evals = eigensolves = 0
    for _ in range(k):
        base = RoundBase(system, chosen)
        base.downdate([(b,) for b in cands if b not in chosen])
        best_bus, best_cost = None, math.inf
        for b in cands:
            if b in chosen:
                continue
            cost = objective(system, Placement(chosen + (b,)), base)
            evals += 1
            if best_bus is None or cost < best_cost - _TIE_REL * max(abs(cost), abs(best_cost)):
                best_bus, best_cost = b, cost
        chosen += (best_bus,)
        eigensolves += base.eigensolves
        del base  # its solved columns go before the next base is built
    final = Placement(chosen)
    return PlacementResult(placement=final, objective=objective(system, final),
                           solver="greedy", elapsed=time.perf_counter() - t0,
                           evaluations=evals, eigensolves=eigensolves)


def exhaustive_place(system: SystemMatrix, k: int,
                     candidates: tuple[int, ...] | None = None,
                     budget: int = 2_000_000) -> PlacementResult:
    cands = _candidates(system, k, candidates)
    n = math.comb(len(cands), k)
    if n > budget:
        raise BudgetError(f"C({len(cands)},{k}) = {n} exceeds budget {budget}")
    t0 = time.perf_counter()
    base = RoundBase(system)
    best, best_cost = None, math.inf
    evals = 0
    combos = combinations(cands, k)
    while chunk := list(islice(combos, _STACK)):
        base.downdate(chunk)
        for combo in chunk:
            cost = objective(system, Placement(combo), base)
            evals += 1
            if best is None or cost < best_cost - _TIE_REL * max(abs(cost), abs(best_cost)):
                best, best_cost = combo, cost
    final = Placement(best)
    return PlacementResult(placement=final, objective=objective(system, final),
                           solver="exhaustive", elapsed=time.perf_counter() - t0,
                           evaluations=evals, eigensolves=base.eigensolves)


def random_place(system: SystemMatrix, k: int, seed: int,
                 candidates: tuple[int, ...] | None = None) -> PlacementResult:
    cands = _candidates(system, k, candidates)
    rng = np.random.default_rng(seed)
    combo = tuple(int(b) for b in rng.choice(cands, size=k, replace=False))
    t0 = time.perf_counter()
    p = Placement(combo)
    cost = objective(system, p)
    return PlacementResult(placement=p, objective=cost, solver="random",
                           elapsed=time.perf_counter() - t0, evaluations=1,
                           eigensolves=1)
