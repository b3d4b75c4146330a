"""Operator-norm distances to subalgebras and derivation seminorms.

Two optimization problems live here:

* dist_opnorm minimizes ||T - a|| over a in a subspace.  That is convex in
  the coefficients, and its epigraph t I >= [[0, M], [M*, 0]] is a linear
  matrix inequality, so one log-det barrier path from the projection of T
  solves it.  Each stage of the path backtracks its Newton steps until the
  barrier objective falls and ends once its Newton decrement is small; the
  final centering takes full Newton steps, each checked to stay on the
  cone.  The barrier's final inverse also yields the certificate: its
  off-diagonal block, projected off the subspace and scaled to unit
  nuclear norm, pairs with T to give a lower bound on the distance.

* the derivation seminorm sup ||UT - TU|| over unitaries U commuting with
  an algebra.  The commutant's unitary group is a product of block unitary
  groups in its adapted basis, so the ascent runs there, on all seeded
  restarts at once: monotone polar re-alignment steps (each maximizes the
  current singular-pair alignment exactly) while they gain much, then
  Riemannian Newton steps U -> U exp(i sum h_k H_k) over a basis H_k of
  the commutant's Hermitian part (Absil, Mahony & Sepulchre, Optimization
  Algorithms on Matrix Manifolds, 2008), whose gradient and Hessian come
  from one SVD of the commutators by perturbation of the top singular
  value.  A restart whose Newton step is not valid or does not rise takes
  a polar step instead, and where the commutant has too many Hermitian
  directions for Newton steps, polar steps run to the stall.  The phases
  run in lockstep, all polar rounds first, and the iterations count both
  kinds of round.  The value is the best restart's.
  Each restart is one row of an (R, n, n) array of block unitaries in the
  adapted basis; BlockStructure.polar and .expi make its polar and Newton
  steps with one batched SVD or eigh per block shape.  A polar step
  before the Newton steps does not decompose the n x n commutators it
  produces: two power steps from the previous left singular vector track
  their top singular pair, which keeps the ascent monotone, and the ascent
  ends with one batched singular-value call for the exact norms.
  The sup over contractions is attained on unitaries because the objective
  is convex and the unitaries are the extreme points of the unit ball of a
  finite-dimensional C*-algebra.  Every unitary of the commutant commutes
  with the double commutant A'', so ||UT - TU|| <= 2 dist(T, A''): the
  ascent's witness and that distance bracket the seminorm.
  For a non-selfadjoint A the unitaries of C*(A)' miss the unit ball of
  A', so the details carry the ball sup, as the sup of ||WT - TW|| / ||W||
  over A' from a ratio ascent of two batched SVDs a round.

Seeded draws come from spans, not bases: a restart is the polar factors
of one Ginibre matrix's block compressions (Haar unitaries whose direct
sum does not depend on the adapted basis), drawn once per model, and every
other seeded element of a known span is OperatorSubspace.random_element.
Only the sampling oracle keeps per-block Haar draws of its own.

Every report is a bracket [lower_bound, upper_bound] around its value, and
converged means one thing throughout: the bracket is at most 1e-6 wide
relative to max(1, ||T||).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .algebra import MatrixAlgebra, relative_commutant
from .blocks import BlockStructure, wedderburn
from .config import DEFAULT_CONFIG, InvalidInputError, NumericConfig
from .linalg import (
    OperatorSubspace,
    as_matrix,
    haar_unitaries,
    op_norm,
    random_matrix,
    subspace_contains,
    subspace_equal,
)

_GAP_TOL = 1e-6
# a barrier stage ends once its Newton decrement lambda^2 is at most this
# (Boyd & Vandenberghe, Convex Optimization, sections 9.5 and 11.3)
_CENTRED = 0.1
_ZERO_DN = 1e-8
# rounds per ascent, polar and Newton rounds on one counter; above the Newton
# cap the polar steps converge only linearly, and at 400 rounds a Haar-rotated
# M_2 (x) I_9 stopped 1.2e-6 max(1, ||T||) short of its stall value
_MAX_ITERS = 1000
# power steps per polar step that track the commutator's top singular pair;
# with one, a polar phase of the benchmark pool ran into _MAX_ITERS
_POWER_STEPS = 2
# a restart switches from polar to Newton steps once a polar step gains less
# than _NEWTON_FROM max(1, ||T||); at 1e-2 some restarts of a seeded sweep
# ended at other local maxima than the polar ascent's
_NEWTON_FROM = 1e-3
# Newton steps need a simple top singular value, (s_1 - s_2) > _SIMPLE_GAP s_1
# (at the optima of the benchmark pool the relative gap was at least 0.075),
# and at most _NEWTON_MAX_DIRECTIONS directions: a step costs O(p^3) per
# restart against O(n^3) for a polar step, and for the scalars the whole
# ascent took 0.9 times the polar-only time at n = 8 (p = 63) but 1.4
# times at n = 9 (p = 80); above the cap polar steps run to the stall or
# to _MAX_ITERS
_SIMPLE_GAP = 1e-3
_NEWTON_MAX_DIRECTIONS = 63


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of a distance or seminorm computation with certification data."""

    value: float
    witness: np.ndarray | None
    lower_bound: float
    upper_bound: float
    iterations: int
    converged: bool
    details: dict = field(default_factory=dict, compare=False)

    @property
    def gap(self) -> float:
        return self.upper_bound - self.lower_bound


def _report(value, witness, lower, upper, iterations, scale, details=None) -> DistanceReport:
    """A report whose converged flag is the certified bracket closing."""
    return DistanceReport(
        float(value), witness, float(lower), float(upper), iterations,
        bool(upper - lower <= _GAP_TOL * scale), details or {},
    )


@dataclass(frozen=True)
class CommutantModel:
    """Commutant data reused across seminorm calls for one (A, ambient) pair."""

    algebra: MatrixAlgebra
    ambient: MatrixAlgebra
    span_commutant: MatrixAlgebra  # commutant of A itself
    star_commutant: MatrixAlgebra  # commutant of A together with its adjoints
    structure: BlockStructure  # block form of the star commutant
    bicommutant: MatrixAlgebra  # commutant of span_commutant in ambient
    # seeded ascent restarts per (rng_seed, opt_restarts), handed out as copies
    restarts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def trivial(self) -> bool:
        return self.star_commutant.dim <= 1


def commutant_model(
    A: MatrixAlgebra, ambient: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG
) -> CommutantModel:
    """Build the commutant data the seminorm and distance calls share.

    The model holds four algebras inside ambient: A as given, its
    commutant A', the star commutant (A together with its adjoints)',
    which is A' itself when A is selfadjoint, and the bicommutant
    A'' = (A')'.  The block structure is taken of the star commutant,
    whose unitaries the seminorm ascent searches.

    Raises InvalidInputError when A does not lie inside ambient, and when
    the star commutant is not selfadjoint (a non-selfadjoint ambient).
    """
    if not subspace_contains(ambient.space, A.space, cfg):
        raise InvalidInputError("algebra does not lie inside the ambient algebra")
    span_comm = relative_commutant(A, ambient, cfg)
    if A.selfadjoint:
        star_comm = span_comm
    else:
        gens = np.concatenate([A.basis, A.basis.conj().transpose(0, 2, 1)])
        star_comm = relative_commutant(gens, ambient, cfg)
    if not star_comm.selfadjoint:
        raise InvalidInputError(
            "the commutant is not selfadjoint; need a selfadjoint ambient algebra"
        )
    structure = wedderburn(star_comm, cfg)
    bicomm = relative_commutant(span_comm, ambient, cfg)
    return CommutantModel(A, ambient, span_comm, star_comm, structure, bicomm)


def _model_for(A, ambient, cfg, model) -> CommutantModel:
    """model, checked to be built for A in ambient, or a new model if None."""
    if model is None:
        return commutant_model(A, ambient, cfg)
    for built, given in ((model.algebra, A), (model.ambient, ambient)):
        if built is not given and not subspace_equal(built.space, given.space, cfg):
            raise InvalidInputError("the commutant model was built for another algebra")
    return model


# ---------------------------------------------------------------------------
# dist_opnorm


def _bound_from_Z(T, V: OperatorSubspace, Z: np.ndarray) -> float:
    """Valid lower bound from any dual candidate: project off V, renormalize."""
    # the barrier's centring gives tr(B_k* Z) ~ 0, so Z itself is the
    # candidate orthogonal to V; its adjoint is orthogonal to V* instead,
    # and in sweeps over scalars, masas and (*-)polynomial algebras at
    # n = 2..6 it never gave the larger bound
    Wp = Z - V.project(Z)
    nn = float(np.linalg.svd(Wp, compute_uv=False).sum())
    if nn <= 1e-14:
        return 0.0
    return abs(float(np.real(np.vdot(Wp, np.asarray(T))))) / nn


@dataclass
class _BarrierPoint:
    """One barrier iterate: y, F(y), -log det F (None off the cone) and F's
    factors, made by the first Newton step from it; theta does not enter."""

    y: np.ndarray
    F: np.ndarray
    ld: float | None
    factors: tuple | None = None


def _barrier_solve(vecT, stack, n: int, x0: np.ndarray, scale: float):
    """Primal barrier method for min_x ||T - sum x_k B_k||.

    The epigraph form t I >= [[0, M], [M*, 0]] is a linear matrix
    inequality, so the standard log-det barrier applies; Newton systems are
    tiny.  Each stage of the path (one theta) takes at most four Newton
    steps, halved until the barrier objective falls, and ends early once
    the Newton decrement is at most _CENTRED.  The final centering takes
    full Newton steps, which stay in the Dikin ellipsoid of a centred point
    and so on the cone (Nesterov & Nemirovskii, 1994); one whose point fails
    the Cholesky test all the same ends it.  Returns (x, newton_steps, P12),
    P12 the off-diagonal block of the centering's barrier inverse with the
    least x-gradient, an almost exactly feasible dual candidate.
    """
    d = stack.shape[0]
    eye = np.eye(2 * n, dtype=np.complex128)
    Bs = stack.reshape(d, n, n)
    Bh = Bs.conj().transpose(0, 2, 1)
    dFs = np.zeros((1 + 2 * d, *eye.shape), dtype=np.complex128)
    dFs[0] = eye
    dFs[1 : 1 + d, :n, n:] = -Bs
    dFs[1 : 1 + d, n:, :n] = -Bh
    dFs[1 + d :, :n, n:] = -1j * Bs
    dFs[1 + d :, n:, :n] = 1j * Bh
    m = dFs.shape[0]
    dF_rows = dFs.reshape(m, -1)

    def point(y):
        x = y[1 : 1 + d] + 1j * y[1 + d :]
        M = (vecT - stack.T @ x).reshape(n, n)
        F = y[0] * eye
        F[:n, n:] += M
        F[n:, :n] += M.conj().T
        ld = None
        with suppress(np.linalg.LinAlgError):
            L = np.linalg.cholesky(F)
            ld = -2.0 * float(np.sum(np.log(np.real(np.diag(L)))))
        return _BarrierPoint(y, F, ld)

    def newton_step(pt, theta):
        """Gradient and Newton step of y[0] + theta * (-log det F) at pt, or None."""
        try:
            if pt.factors is None:
                # F's inverse P and the traces tr(P dF_a) and Re tr(P dF_a P dF_b)
                P = np.linalg.inv(pt.F)
                P = (P + P.conj().T) / 2.0
                Q = P @ dFs
                gram = np.real(Q.reshape(m, -1) @ np.swapaxes(Q, 1, 2).reshape(m, -1).T)
                pt.factors = P, np.real(dF_rows @ P.T.ravel()), gram
            _, traces, gram = pt.factors
            grad = -theta * traces
            grad[0] += 1.0
            H = theta * gram
            H.flat[:: m + 1] += 1e-13 * max(1.0, theta)
            return grad, np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            return None

    t0 = float(np.linalg.svd((vecT - stack.T @ x0).reshape(n, n), compute_uv=False)[0])
    pt = point(np.concatenate([[t0 + 0.05 * scale + 1e-8], x0.real, x0.imag]))
    steps = 0
    theta = 0.1 * scale
    # the central point at theta lies at most 2n * theta above the optimum,
    # so 1e-10 * scale leaves ~1e-9 * scale at n <= 6, well inside the 1e-6
    # certificate.  Going further buys nothing: at 1e-11 F is so near
    # singular that the dual candidate P12 degrades, and the largest
    # certified gap over n = 2..10 grew tenfold, to 4e-7 * scale.
    theta_min = 1e-10 * scale
    while theta > theta_min:
        theta = max(theta * 0.15, theta_min)
        for _ in range(4):
            sys = newton_step(pt, theta)
            if sys is None:
                return None
            grad, delta = sys
            # the stage ends once the Newton decrement of the barrier
            # objective over theta, lambda^2 = -grad.delta / theta, is small
            if -float(grad @ delta) / theta <= _CENTRED:
                break
            steps += 1
            g0 = pt.y[0] + theta * pt.ld
            for k in range(40):
                trial = point(pt.y + 0.5**k * delta)
                if trial.ld is not None and trial.y[0] + theta * trial.ld < g0 + 1e-18:
                    break
            else:  # no decrease in 40 halvings ends the stage
                break
            pt = trial
    # final centering: the x-gradient norm is, to leading order, the
    # relative infeasibility of the dual candidate P12, so drive it down
    # directly with full Newton steps and keep the best inverse seen
    best_P, best_gx = None, np.inf
    for _ in range(14):
        sys = newton_step(pt, theta_min)
        if sys is None:
            break
        grad, delta = sys
        gx = float(np.linalg.norm(grad[1:]))
        if gx < best_gx:
            best_P, best_gx = pt.factors[0], gx
        if gx <= 1e-9:
            break
        steps += 1
        trial = point(pt.y + delta)
        if trial.ld is None:
            break
        pt = trial
    if best_P is None:
        return None
    x = pt.y[1 : 1 + d] + 1j * pt.y[1 + d :]
    return x, steps, best_P[:n, n:]


def dist_opnorm(
    T, V: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG
) -> DistanceReport:
    """Operator-norm distance from T to the subspace V.

    One log-det barrier path, started from the projection of T, gives the
    approximant: the report's witness lies in V and its value is
    ||T - witness||, an upper bound on the distance.  lower_bound is the
    dual certificate from the barrier's final inverse, and converged means
    the certified gap between the two is at most 1e-6 relative to
    max(1, ||T||).  If the barrier breaks down, the report carries the
    projection of T as witness and lower_bound 0, so it is converged only
    when that value is itself within the tolerance.  cfg is accepted for a
    uniform signature; the barrier needs no settings.
    """
    A = as_matrix(T, dim=V.ambient_dim)
    n = V.ambient_dim
    scale = max(1.0, op_norm(A))
    if V.dim == 0:
        val = op_norm(A)
        return _report(val, np.zeros((n, n)), val, val, 0, scale)
    stack = V.stack
    x0 = stack.conj() @ A.ravel()
    out = _barrier_solve(A.ravel(), stack, n, x0, scale)
    if out is None:
        x, iterations, lower = x0, 0, 0.0
    else:
        x, iterations, P12 = out
        lower = _bound_from_Z(A, V, P12)
    witness = (stack.T @ x).reshape(n, n)
    val = op_norm(A - witness)
    return _report(val, witness, min(lower, val), val, iterations, scale)


# ---------------------------------------------------------------------------
# derivation seminorm


def _power_steps(F: np.ndarray, w: np.ndarray):
    """_POWER_STEPS power steps on each F of an (R, n, n) stack from left vectors w.

    Returns (sigma, w, u) with sigma = ||F u|| and w = F u / sigma.  Where
    F* w vanishes, sigma, w and u come back 0 and the caller keeps its own.
    """
    tiny = np.finfo(float).tiny
    for _ in range(_POWER_STEPS):
        x = (w.conj()[:, None, :] @ F)[:, 0].conj()
        u = x / np.maximum(np.linalg.norm(x, axis=1), tiny)[:, None]
        y = (F @ u[:, :, None])[:, :, 0]
        sigma = np.linalg.norm(y, axis=1)
        w = y / np.maximum(sigma, tiny)[:, None]
    return sigma, w, u


def _ascent_derivatives(Tt, D, Ub, svd):
    """Gradient and Hessian of h -> ||F(U exp(i sum_k h_k D_k))|| at h = 0.

    F(U) = U Tt - Tt U for the (R, n, n) unitaries Ub, svd = (Wl, s, Vh)
    is the SVD of the (R, n, n) stack F(U), and D holds the (p, n, n)
    Hermitian directions.  These are the first and second order
    perturbation terms of the top eigenvalue s_1 of [[0, F], [F*, 0]],
    whose eigenvectors are (w_j, +-u_j) / sqrt 2 with eigenvalues +-s_j;
    they hold where s_1 is simple.  With E_k = i (U D_k Tt - Tt U D_k)
    the first derivative of F along D_k:

        g_k  = Re w_1* E_k u_1
        H_kl = -Re w_1* (U S_kl Tt - Tt U S_kl) u_1
               + sum_{j >= 2} Re c+_jk conj(c+_jl) / (2 (s_1 - s_j))
               + sum_{j >= 1} Re c-_jk conj(c-_jl) / (2 (s_1 + s_j))

    with S_kl = (D_k D_l + D_l D_k) / 2 and
    c+-_jk = w_j* E_k u_1 +- conj(w_1* E_k u_j).  Returns g (R, p) and
    H (R, p, p).
    """
    Wl, s, Vh = svd
    R, n = s.shape
    w1, u1 = Wl[:, :, 0], Vh[:, 0, :].conj()
    TU = Tt @ Ub
    # D_k applied to U* w_1, Tt u_1, U* Tt* w_1 and u_1: (R, p, n) rows each
    vecs = np.stack(
        [(w1[:, None, :] @ Ub.conj())[:, 0], u1 @ Tt.T, (w1[:, None, :] @ TU.conj())[:, 0], u1],
        axis=1,
    )
    Da, Db, Dc, Dd = np.swapaxes((vecs @ D.reshape(-1, n).T).reshape(R, 4, -1, n), 0, 1)
    # rows E_k u_1 and E_k* w_1
    Eu = 1j * (Db @ np.swapaxes(Ub, 1, 2) - Dd @ np.swapaxes(TU, 1, 2))
    Ew = -1j * (Da @ Tt.conj() - Dc)
    g = np.real(Eu @ w1.conj()[:, :, None])[:, :, 0]
    Wu, Vw = Eu @ Wl.conj(), Ew @ np.swapaxes(Vh, 1, 2)
    cp, cm = (Wu + Vw)[:, :, 1:], Wu - Vw
    # the two sums are symmetric already, so one product and one
    # symmetrization give all three terms; Re(a b) = Re a Re b - Im a Im b
    # makes it one real product
    wp, wm = 0.5 / (s[:, :1] - s[:, 1:]), 0.5 / (s[:, :1] + s)
    left = np.concatenate([cp * wp[:, None], cm * wm[:, None], -Da.conj(), Dc.conj()], axis=2)
    right = np.concatenate([cp.conj(), cm.conj(), Db, Dd], axis=2)
    H = np.concatenate([left.real, -left.imag], axis=2) @ np.swapaxes(
        np.concatenate([right.real, right.imag], axis=2), 1, 2
    )
    return g, 0.5 * (H + np.swapaxes(H, 1, 2))


def _cholesky_ok(M: np.ndarray) -> np.ndarray:
    """Which matrices of an (R, p, p) Hermitian stack have a Cholesky factor."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_cholesky_ok(A[None]) for A in M])
    return np.ones(len(M), dtype=bool)


def _newton_steps(Tt, st: BlockStructure, Ub, svd, damp=1.0):
    """Riemannian Newton steps U -> U exp(i sum_k h_k D_k) on the commutant's unitaries.

    svd is the SVD of the (R, n, n) commutators of the (R, n, n) unitaries
    Ub, and the D_k are st.direction_matrices.  h solves (mu - H) h = g
    (_ascent_derivatives) with the Levenberg-Marquardt shift
    mu = damp ||g||: it keeps the step short where H is only semidefinite,
    as at the scalars' maxima, which are not isolated for n >= 4, and a
    larger damp (one per row) turns the step toward a short gradient
    step.  A row's step is valid only where its top singular value is
    simple ((s_1 - s_2) > _SIMPLE_GAP s_1) and mu - H is positive definite
    (its Cholesky factorization exists); elsewhere h is 0.  Returns
    (candidate Ub, valid, predicted gain g.h / 2).
    """
    s = svd[1]
    R, p = len(s), st.algebra_dim - 1
    h, gain = np.zeros((R, p)), np.zeros(R)
    ok = s[:, 0] - s[:, 1] > _SIMPLE_GAP * s[:, 0]
    rows = np.flatnonzero(ok)
    D = st.direction_matrices
    if rows.size:
        g, H = _ascent_derivatives(Tt, D, Ub[rows], [x[rows] for x in svd])
        mu = np.linalg.norm(g, axis=1) * np.broadcast_to(damp, R)[rows]
        shift = mu + 1e-13 * np.maximum(1.0, s[rows, 0])
        H -= shift[:, None, None] * np.eye(p)
        nd = _cholesky_ok(-H)
        ok[rows[~nd]] = False
        rows, g = rows[nd], g[nd]
        h[rows] = np.linalg.solve(-H[nd], g[:, :, None])[:, :, 0]
        gain[rows] = 0.5 * np.sum(g * h[rows], axis=1)
    return Ub @ st.expi((h @ D.reshape(p, -1)).reshape(Ub.shape)), ok, gain


def _polar_steps(Tt, st: BlockStructure, w, u):
    """(R, n, n) unitaries maximizing Re <w, F(U) u> for (R, n) singular pairs (w, u)."""
    b, c = u @ Tt.T, w @ Tt.conj()
    return st.polar(b[:, :, None] * w.conj()[:, None, :] - u[:, :, None] * c.conj()[:, None, :])


def _polar_phase_batch(Tt: np.ndarray, st: BlockStructure, Ub):
    """Monotone ascent run on all restarts at once: polar steps, then Newton steps.

    A polar step re-aligns a restart's block unitaries with its current
    singular pair (w, u): it maximizes Re <w, F(U) u> over U exactly, so
    Re <w, F' u> >= sigma for the new commutator F'.  While a restart
    gains at least _NEWTON_FROM max(1, ||T||) per step, the pair is not
    recomputed by an SVD of F'; power steps started from w track it, and
    the ascent stays monotone: u' = F'* w / ||F'* w||,
    w' = F' u' / ||F' u'|| gives sigma' = ||F' u'|| >= ||F'* w|| >=
    Re <w, F' u> >= sigma (a second step raises it again the same way).
    Where F'* w = 0 (zero commutators) sigma' is 0 and the previous pair
    stays.

    Alternating maximization converges only linearly, so once a restart
    gains less than that it switches to Riemannian Newton steps
    (_newton_steps) from the exact SVD of its commutator, each kept only
    where the exact norm rises.  Where the Newton step is not valid or
    does not rise, the restart takes a polar step from its exact pair
    instead, kept where it does not decrease the norm.  Every restart
    stops on its own once two steps in a row gain at most
    1e-13 max(1, sigma), or once a valid Newton step predicts a gain
    within that tolerance.  The phases run in lockstep: polar rounds step
    every restart still in the polar phase, then Newton rounds every
    switched one still running, at most _MAX_ITERS rounds in all.  The
    ascent ends with one batched singular-value call and returns the exact
    norms ||F||, so restarts are ranked by exact values.  Ub holds one
    restart's block unitary per row of an (R, n, n) array and is updated in
    place.  Returns (norms, Ub, rounds, capped), where capped says the
    ascent stopped at _MAX_ITERS with a restart still gaining.
    """

    def stalls(rows, old, new):
        gained = new > old + 1e-13 * np.maximum(1.0, old)
        stall[rows[gained]] = 0
        stall[rows[~gained]] += 1

    # with too many directions for Newton steps the polar steps run to the end
    newton_ok = st.algebra_dim - 1 <= _NEWTON_MAX_DIRECTIONS
    switch = _NEWTON_FROM * max(1.0, op_norm(Tt)) if newton_ok else -np.inf
    R = len(Ub)
    Wl, sv, Vh = np.linalg.svd(Ub @ Tt - Tt @ Ub)
    sigma = sv[:, 0].copy()
    w = Wl[:, :, 0].copy()
    u = Vh[:, 0, :].conj()
    stall = np.zeros(R, dtype=int)
    # rows switched to Newton steps; their (Wl, sv, Vh) rows are exact
    newton = np.zeros(R, dtype=bool)
    iters = 0
    while iters < _MAX_ITERS and (rows := np.flatnonzero((stall < 2) & ~newton)).size:
        iters += 1
        new = _polar_steps(Tt, st, w[rows], u[rows])
        sig_new, w_new, u_new = _power_steps(new @ Tt - Tt @ new, w[rows])
        old = sigma[rows]
        keep = sig_new >= old
        stalls(rows, old, sig_new)
        Ub[rows[keep]] = new[keep]
        sigma[rows[keep]] = sig_new[keep]
        moved = keep & (sig_new > 0)
        w[rows[moved]], u[rows[moved]] = w_new[moved], u_new[moved]
        slow = rows[(sig_new - old < switch) & (stall[rows] < 2)]
        if slow.size:
            Wl[slow], sv[slow], Vh[slow] = np.linalg.svd(Ub[slow] @ Tt - Tt @ Ub[slow])
            sigma[slow], w[slow], u[slow] = sv[slow, 0], Wl[slow, :, 0], Vh[slow, 0, :].conj()
            newton[slow] = True
    retry = np.zeros(R, dtype=bool)
    damp = np.ones(R)
    # below the cap every running row has switched: a Newton step where valid
    # and its last did not fall, else a polar step from its exact pair
    while iters < _MAX_ITERS and (rows := np.flatnonzero(stall < 2)).size:
        iters += 1
        polar = rows[retry[rows]]
        rows = rows[~retry[rows]]
        cand = Ub[:0]
        if rows.size:
            svd = (Wl[rows], sv[rows], Vh[rows])
            stepped, ok, gain = _newton_steps(Tt, st, Ub[rows], svd, damp[rows])
            # a valid step that predicts a gain within the stall tolerance
            # (its Newton decrement) leaves nothing to gain: the row is done
            done = ok & (gain <= 1e-13 * np.maximum(1.0, sigma[rows]))
            stall[rows[done]] = 2
            damp[rows[~ok]] = np.minimum(damp[rows[~ok]] * 10.0, 1e8)
            polar = np.concatenate([polar, rows[~ok]])
            go = ok & ~done
            rows, cand = rows[go], stepped[go]
        if polar.size:
            cand = np.concatenate([cand, _polar_steps(Tt, st, w[polar], u[polar])])
        k, rows = rows.size, np.concatenate([rows, polar])
        if rows.size:
            old = sigma[rows]
            W2, s2, V2 = np.linalg.svd(cand @ Tt - Tt @ cand)
            keep = s2[:, 0] >= old
            # Levenberg-Marquardt damping: tenfold up after an invalid or a
            # falling Newton step, tenfold down to 1 after a rising one
            nw = rows[:k]
            d = damp[nw]
            damp[nw] = np.where(keep[:k], np.maximum(d / 10.0, 1.0), np.minimum(d * 10.0, 1e8))
            retry[rows] = np.arange(rows.size) < k
            retry[rows[keep]] = False
            stalls(rows, old, np.where(keep, s2[:, 0], old))
            up = rows[keep]
            Ub[up] = cand[keep]
            Wl[up], sv[up], Vh[up] = W2[keep], s2[keep], V2[keep]
            sigma[up], w[up], u[up] = s2[keep, 0], W2[keep, :, 0], V2[keep, 0, :].conj()
    norms = np.linalg.svd(Ub @ Tt - Tt @ Ub, compute_uv=False)[:, 0]
    return norms, Ub, iters, bool((stall < 2).any())


def _contraction_sup(T, model: CommutantModel, cfg: NumericConfig):
    """Estimated sup of ||WT - TW|| over the unit ball of the span commutant A'.

    Both norms are positively homogeneous, so that is the sup of the ratio
    r(W) = ||WT - TW|| / ||W|| over nonzero W in A', and every iterate
    scaled to W / ||W|| lies in the ball.  Gradient ascent on r from eight
    seeded elements of the span (not of its basis), run as one stack: a
    round is two batched SVDs, of W and WT - TW, whose top pairs (a, b) and
    (w, u) give the gradient w (Tu)* - (T* w) u* - r a b* at ||W|| = 1; its
    projection onto A' is the step.  A step is kept where it gains more
    than 1e-12 and 1e-4 of its first-order prediction (Armijo), and the
    step size then grows 1.5-fold up to 2, or else halves.  Each trial
    stops on its own below step 1e-6, and at most 60 rounds run.
    """
    C = model.span_commutant.space
    if C.dim == 0:
        return 0.0

    def score(W):
        """r(W), W / ||W|| and the top singular pairs of W and of W T - T W."""
        Ua, sa, Vha = np.linalg.svd(W)
        Uw, sw, Vhw = np.linalg.svd(W @ T - T @ W)
        nrm = sa[:, 0]
        pairs = Ua[:, :, 0], Vha[:, 0, :].conj(), Uw[:, :, 0], Vhw[:, 0, :].conj()
        return (sw[:, 0] / nrm, W / nrm[:, None, None]) + pairs

    def outer(x, y):
        return x[:, :, None] * y.conj()[:, None, :]

    # each trial keeps the pairs that scored its current W for its next step
    val, W, a, b, w, u = score(np.stack([C.random_element(cfg.rng(207, t)) for t in range(8)]))
    eta = np.full(len(W), 0.5)
    live = np.arange(len(W))
    for _ in range(60):
        if live.size == 0:
            break
        wl, ul = w[live], u[live]
        grad = outer(wl, ul @ T.T) - outer(wl @ T.conj(), ul)
        grad -= val[live][:, None, None] * outer(a[live], b[live])
        D = C.projections(grad)
        cand = score(W[live] + eta[live][:, None, None] * D)
        # a step gaining far less than eta ||D||^2 swings across the maximum
        need = 1e-4 * eta[live] * np.sum(np.abs(D) ** 2, axis=(1, 2))
        up = cand[0] > val[live] + np.maximum(need, 1e-12)
        for x, c in zip((val, W, a, b, w, u), cand):
            x[live[up]] = c[up]
        eta[live[up]] = np.minimum(eta[live[up]] * 1.5, 2.0)
        eta[live[~up]] /= 2.0
        live = live[eta[live] >= 1e-6]
    return float(max(0.0, val.max()))


def _restarts(model: CommutantModel, cfg: NumericConfig) -> np.ndarray:
    """A copy of the model's (R, n, n) seeded restarts (the ascent updates them in place).

    Restart r, drawn on first use, is the block polar factor of the Ginibre
    matrix from cfg.rng(205, r), whichever basis wedderburn chose.
    """
    key = (cfg.rng_seed, cfg.opt_restarts)
    if key not in model.restarts:
        st, W = model.structure, model.structure.unitary
        G = np.stack([random_matrix(cfg.rng(205, r), st.ambient_dim) for r in range(key[1])])
        model.restarts[key] = st.polar(W.conj().T @ G @ W)
    return model.restarts[key].copy()


def derivation_seminorm(
    T,
    A: MatrixAlgebra,
    ambient: MatrixAlgebra,
    cfg: NumericConfig = DEFAULT_CONFIG,
    model: CommutantModel | None = None,
    compute_upper: bool = True,
) -> DistanceReport:
    """sup ||UT - TU|| over unitaries U in the commutant of A inside ambient.

    For a selfadjoint A it vanishes exactly on the double commutant.  For
    a non-selfadjoint A the unitaries searched are those of C*(A)', the
    commutant of A together with its adjoints, a smaller group than the
    unitaries of A', so the value can be 0 off A'': for the polynomial
    algebra of a generic matrix, A'' = A while C*(A)' is the scalars, and
    every T gets value 0, converged, at a positive dist(T, A'').  For a
    non-selfadjoint A, details["contraction_sup"] estimates from below the
    sup of ||WT - TW|| over the unit ball of the plain commutant A', as the
    largest ratio ||WT - TW|| / ||W|| an ascent over A' finds.

    The report is a bracket: lower_bound is the value of the ascent's
    witness unitary, and upper_bound is 2 dist(T, A'') from the certified
    distance, or with compute_upper=False the cheaper 2 ||T - P T|| for
    the orthogonal projection P onto A''.  converged means the bracket
    closed to 1e-6 relative to max(1, ||T||).  The restarts ascend
    together by polar steps and then Newton steps (_polar_phase_batch),
    and the value and witness are those of the restart ranked best.
    iterations counts the rounds of that ascent, polar plus Newton
    rounds, from restarts drawn once per model.  As diagnostics only,
    details["restart_consensus"] counts how many of the R restarts came
    within 1e-6 max(1, ||T||) of the value, out of R, and
    details["polar_cap_hits"] is 1 where the ascent stopped at its round
    cap with a restart still gaining, else 0.  A model passed in must
    span A and ambient, or InvalidInputError is raised.
    """
    model = _model_for(A, ambient, cfg, model)
    Tm = as_matrix(T, dim=ambient.ambient_dim)
    st = model.structure
    scale = max(1.0, op_norm(Tm))
    details = {"restart_consensus": cfg.opt_restarts, "polar_cap_hits": 0}
    if not A.selfadjoint:
        details["contraction_sup"] = _contraction_sup(Tm, model, cfg)
    if model.trivial:
        n = ambient.ambient_dim
        return _report(0.0, np.eye(n, dtype=np.complex128), 0.0, 0.0, 0, scale, details)
    W = st.unitary
    Tt = W.conj().T @ Tm @ W
    sigma, Ub, iters, caps = _polar_phase_batch(Tt, st, _restarts(model, cfg))
    best = np.argsort(-sigma)[0]
    value = float(sigma[best])
    details["restart_consensus"] = int(np.sum(value - sigma <= _GAP_TOL * scale))
    details["polar_cap_hits"] = int(caps)
    witness = W @ Ub[best] @ W.conj().T
    # every U in the commutant commutes with A'', so ||UT - TU|| <= 2 ||T - a||
    if compute_upper:
        upper = 2.0 * dist_opnorm(Tm, model.bicommutant.space, cfg).value
    else:
        upper = 2.0 * op_norm(Tm - model.bicommutant.space.project(Tm))
    return _report(value, witness, value, max(upper, value), iters, scale, details)


def sampling_seminorm_bound(
    T,
    A: MatrixAlgebra,
    ambient: MatrixAlgebra,
    num_samples: int,
    cfg: NumericConfig = DEFAULT_CONFIG,
    model: CommutantModel | None = None,
) -> float:
    """Monte-Carlo lower bound: max ||UT - TU|| over Haar commutant unitaries.

    Independent of the ascent path; always at most the true sup.  A model
    passed in must span A and ambient, or InvalidInputError is raised.
    """
    model = _model_for(A, ambient, cfg, model)
    Tm = as_matrix(T, dim=ambient.ambient_dim)
    st = model.structure
    if model.trivial or num_samples <= 0:
        return 0.0
    W = st.unitary
    Tt = W.conj().T @ Tm @ W
    rng = cfg.rng(206)
    best = 0.0
    chunk = 2000
    done = 0
    while done < num_samples:
        batch = min(chunk, num_samples - done)
        Ub = st.assemble(st.group([haar_unitaries(rng, s, batch) for s, _ in st.blocks]))
        F = Ub @ Tt - Tt @ Ub
        svals = np.linalg.svd(F, compute_uv=False)
        best = max(best, float(svals[:, 0].max()))
        done += batch
    return best


def _sampled_pairs(
    A: MatrixAlgebra, ambient: MatrixAlgebra, count: int, key: int, cfg: NumericConfig
):
    """Yield (seminorm, distance) reports for seeded unit-Frobenius T in ambient."""
    if count < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {count}")
    model = commutant_model(A, ambient, cfg)
    for i in range(count):
        T = ambient.space.random_element(cfg.rng(key, i))
        T = T / np.linalg.norm(T)
        dn = derivation_seminorm(T, A, ambient, cfg, model, compute_upper=False)
        yield dn, dist_opnorm(T, A.space, cfg)


def kn_lower_estimate(
    A: MatrixAlgebra,
    ambient: MatrixAlgebra,
    num_samples: int,
    cfg: NumericConfig = DEFAULT_CONFIG,
) -> float:
    """Empirical lower bound for the metric-normality constant of A in ambient.

    Samples unit-Frobenius-norm elements of the ambient algebra and takes
    the worst dist/seminorm ratio.  A sample with vanishing seminorm but
    positive distance makes the estimate infinite.  For a selfadjoint A
    that shows A is not normal, since the seminorm vanishes exactly on A''.
    For a non-selfadjoint A it shows nothing of the kind: the seminorm runs
    over the unitaries of C*(A)', which can be the scalars while A is
    normal, and span{I, E_12} and the polynomial algebra of a generic
    matrix are normal yet give inf.
    """
    best = 0.0
    for dn, dist in _sampled_pairs(A, ambient, num_samples, 208, cfg):
        if dn.value < _ZERO_DN:
            if dist.value > cfg.eq_tol:
                return float("inf")
            continue
        best = max(best, dist.value / dn.value)
    return float(best)


def composition_inequality_check(
    A: MatrixAlgebra,
    D: MatrixAlgebra,
    ambient: MatrixAlgebra,
    samples: int,
    cfg: NumericConfig = DEFAULT_CONFIG,
    k_ad: float = 1.0,
    k_db: float = 1.0,
) -> dict:
    """Per-sample check of the chained metric bound through an intermediate algebra.

    With certified constants k_ad (for A inside D) and k_db (for D inside
    the ambient), every T must satisfy
    dist(T, A) <= [k_db + k_ad (2 k_db + 1)] * seminorm(T, A, ambient) + eq_tol.
    """
    if not (subspace_contains(D.space, A.space, cfg) and subspace_contains(ambient.space, D.space, cfg)):
        raise InvalidInputError("need nested algebras A inside D inside ambient")
    coeff = k_db + k_ad * (2.0 * k_db + 1.0)
    violations = 0
    max_ratio = 0.0
    for dn, dist in _sampled_pairs(A, ambient, samples, 209, cfg):
        bound = coeff * dn.value + cfg.eq_tol
        if dist.value > bound:
            violations += 1
        if dn.value > _ZERO_DN:
            max_ratio = max(max_ratio, dist.value / dn.value)
    return {
        "samples": samples,
        "violations": violations,
        "bound_coefficient": coeff,
        "max_ratio": max_ratio,
        "passed": violations == 0,
    }
