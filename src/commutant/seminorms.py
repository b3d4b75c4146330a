"""Operator-norm distances to subalgebras and derivation seminorms.

Two optimization problems live here:

* dist_opnorm minimizes ||T - a|| over a in a subspace.  That is convex in
  the coefficients, and its epigraph t I >= [[0, M], [M*, 0]] is a linear
  matrix inequality, so one log-det barrier path from the projection of T
  solves it.  The barrier's final inverse also yields the certificate: its
  off-diagonal block, projected off the subspace and scaled to unit
  nuclear norm, pairs with T to give a lower bound on the distance.

* the derivation seminorm sup ||UT - TU|| over unitaries U commuting with
  an algebra.  The commutant's unitary group is a product of block unitary
  groups in its adapted basis, so the ascent runs there: monotone polar
  re-alignment steps (each step maximizes the current singular-pair
  alignment exactly) followed by tangent exp(i t H) polishing steps, over
  seeded restarts.  The blocks of one shape (s, m) are factorized together:
  their unitaries are held as one stacked array, so each polar step is one
  batched s x s SVD and each tangent step one batched eigh per block shape
  (closed forms for s = 1), and assembly is a single precomputed scatter.
  A polar step does not decompose the n x n commutators it produces: two
  power steps from the previous left singular vector track their top
  singular pair, which keeps the ascent monotone, and each polar phase
  ends with one batched singular-value call for the exact norms.
  The sup over contractions is attained on unitaries because the objective
  is convex and the unitaries are the extreme points of the unit ball of a
  finite-dimensional C*-algebra.  Every unitary of the commutant commutes
  with the double commutant A'', so ||UT - TU|| <= 2 dist(T, A''): the
  ascent's witness and that distance bracket the seminorm.

Every report is a bracket [lower_bound, upper_bound] around its value, and
converged means one thing throughout: the bracket is at most 1e-6 wide
relative to max(1, ||T||).
"""

from __future__ import annotations

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
    subspace_contains,
)

_GAP_TOL = 1e-6
_ZERO_DN = 1e-8
# polar steps per ascent phase, and the first tangent step length
_MAX_ITERS = 400
_STEP0 = 0.5
# power steps per polar step that track the commutator's top singular pair;
# with one, a polar phase of the benchmark pool ran into _MAX_ITERS
_POWER_STEPS = 2


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


def _barrier_solve(vecT, stack, n: int, x0: np.ndarray, scale: float):
    """Primal barrier method for min_x ||T - sum x_k B_k||.

    The epigraph form t I >= [[0, M], [M*, 0]] is a linear matrix
    inequality, so the standard log-det barrier applies; Newton systems are
    tiny.  Returns (x, newton_steps, P12) where P12 is the off-diagonal
    block of the final barrier inverse, an almost exactly feasible dual
    candidate.
    """
    d = stack.shape[0]
    two = 2 * n
    eye = np.eye(two, dtype=np.complex128)
    dFs = np.zeros((1 + 2 * d, two, two), dtype=np.complex128)
    dFs[0] = eye
    for k in range(d):
        B = stack[k].reshape(n, n)
        dFs[1 + k, :n, n:] = -B
        dFs[1 + k, n:, :n] = -B.conj().T
        dFs[1 + d + k, :n, n:] = -1j * B
        dFs[1 + d + k, n:, :n] = 1j * B.conj().T
    m = dFs.shape[0]
    dF_rows = dFs.reshape(m, -1)

    def F_of(y):
        x = y[1 : 1 + d] + 1j * y[1 + d :]
        M = (vecT - stack.T @ x).reshape(n, n)
        F = y[0] * eye
        F[:n, n:] += M
        F[n:, :n] += M.conj().T
        return F

    def neg_logdet(F):
        try:
            L = np.linalg.cholesky(F)
        except np.linalg.LinAlgError:
            return None
        return -2.0 * float(np.sum(np.log(np.real(np.diag(L)))))

    t0 = float(
        np.linalg.svd((vecT - stack.T @ x0).reshape(n, n), compute_uv=False)[0]
    )
    y = np.concatenate([[t0 + 0.05 * scale + 1e-8], x0.real, x0.imag])
    steps = 0
    theta = 0.1 * scale
    # the central point at theta lies at most 2n * theta above the optimum,
    # so 1e-10 * scale leaves ~1e-9 * scale at n <= 6, well inside the 1e-6
    # certificate.  Going further buys nothing: at 1e-11 F is so near
    # singular that the dual candidate P12 degrades, and the largest
    # certified gap over n = 2..10 grew tenfold, to 4e-7 * scale.
    theta_min = 1e-10 * scale

    def newton_system(F, theta):
        try:
            P = np.linalg.inv(F)
        except np.linalg.LinAlgError:
            return None
        P = (P + P.conj().T) / 2.0
        # tr(P dF_a) and tr(P dF_a P dF_b) as matrix products
        traces = np.real(dF_rows @ P.T.ravel())
        grad = -theta * traces
        grad[0] += 1.0
        Q = P @ dFs
        H = theta * np.real(Q.reshape(m, -1) @ np.swapaxes(Q, 1, 2).reshape(m, -1).T)
        H.flat[:: m + 1] += 1e-13 * max(1.0, theta)
        try:
            delta = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            return None
        return P, grad, delta

    # F and its -log det belong to the current y; an accepted line-search
    # trial hands its own on, so each point is factorized once
    F = F_of(y)
    ld = neg_logdet(F)
    while theta > theta_min:
        theta = max(theta * 0.15, theta_min)
        for _ in range(4):
            sys = newton_system(F, theta)
            if sys is None:
                return None
            P, grad, delta = sys
            g0 = y[0] + theta * ld
            alpha = 1.0
            improved = False
            for _ in range(40):
                y_try = y + alpha * delta
                F_try = F_of(y_try)
                ld_try = neg_logdet(F_try)
                if ld_try is not None and y_try[0] + theta * ld_try < g0 + 1e-18:
                    y, F, ld = y_try, F_try, ld_try
                    improved = True
                    break
                alpha /= 2.0
            steps += 1
            if not improved or np.linalg.norm(alpha * delta) < 1e-14 * max(
                1.0, np.linalg.norm(y)
            ):
                break
    # final centering: the x-gradient norm is, to leading order, the
    # relative infeasibility of the dual candidate P12, so drive it down
    # directly with damped Newton steps instead of a value line search
    best_P = None
    best_gx = np.inf
    for _ in range(14):
        sys = newton_system(F, theta_min)
        if sys is None:
            break
        P, grad, delta = sys
        gx = float(np.linalg.norm(grad[1:]))
        if gx < best_gx:
            best_gx = gx
            best_P = P
        if gx <= 1e-9:
            break
        alpha = 1.0
        moved = False
        for _ in range(30):
            y_try = y + alpha * delta
            F_try = F_of(y_try)
            if neg_logdet(F_try) is not None:
                y, F = y_try, F_try
                moved = True
                break
            alpha /= 2.0
        steps += 1
        if not moved:
            break
    if best_P is None:
        return None
    x = y[1 : 1 + d] + 1j * y[1 + d :]
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
    x0 = V.coeffs(A)
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


def _top_pair(F: np.ndarray):
    U, s, Vh = np.linalg.svd(F)
    return s[0], U[:, 0], Vh[0].conj()


def _polar_unitaries(Y: np.ndarray) -> np.ndarray:
    """Unitaries u maximizing Re tr(u Y) for a (..., s, s) stack Y.

    For s = 1 that is conj(y)/|y| (1 where y = 0, as the SVD gives).
    """
    if Y.shape[-1] == 1:
        mag = np.abs(Y)
        return np.where(mag > 0, Y.conj() / np.where(mag > 0, mag, 1.0), 1.0)
    P, _, Qh = np.linalg.svd(Y)
    return np.conj(np.swapaxes(P @ Qh, -1, -2))


def _expi_factory(H: np.ndarray):
    """t -> exp(i t H) for a (..., s, s) Hermitian stack, diagonalized once."""
    if H.shape[-1] == 1:
        h = H.real
        return lambda t: np.exp(1j * t * h)
    vals, vecs = np.linalg.eigh(H)
    vecs_h = np.conj(np.swapaxes(vecs, -1, -2))
    return lambda t: (vecs * np.exp(1j * t * vals)[..., None, :]) @ vecs_h


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


def _polar_phase_batch(Tt: np.ndarray, layout, Us):
    """Monotone polar ascent run on all restarts at once.

    Each step re-aligns every restart's block unitaries with its current
    singular pair (w, u), and a step is kept only where it does not
    decrease that restart's objective, so every row ascends monotonically.
    The pair is not recomputed by an SVD of the new commutator F'; power
    steps started from w track it, and the ascent stays monotone: the
    polar step maximizes Re <w, F(U) u> over U exactly, so
    Re <w, F' u> >= sigma, and a power step u' = F'* w / ||F'* w||,
    w' = F' u' / ||F' u'|| gives sigma' = ||F' u'|| >= ||F'* w|| >=
    Re <w, F' u> >= sigma (a second step raises it again the same way).
    So the tracked sigma is always Re <w, F u> <= ||F||, and the keep and
    stall rule compares these lower bounds of the norm.  Where F'* w = 0
    (zero commutators) sigma' is 0 and the previous pair stays.  The phase
    ends with one batched singular-value call and returns the exact norms
    ||F||, so restarts are ranked by exact values.  Us holds one
    (R, K, s, s) array per block shape and is updated in place.  Returns
    (norms, Us, iterations, capped), where capped says the phase stopped
    at _MAX_ITERS with a row still gaining.
    """

    def commutators(Us):
        Ub = layout.assemble(Us)
        return Ub @ Tt - Tt @ Ub

    R = Us[0].shape[0]
    UU, sv, Vh = np.linalg.svd(commutators(Us))
    sigma = sv[:, 0]
    w = UU[:, :, 0]
    u = Vh[:, 0, :].conj()
    stall = np.zeros(R, dtype=int)
    iters = 0
    while iters < _MAX_ITERS and (stall < 2).any():
        b = np.einsum("ij,rj->ri", Tt, u)
        c = np.einsum("ji,rj->ri", Tt.conj(), w)
        X = b[:, :, None] * w.conj()[:, None, :] - u[:, :, None] * c.conj()[:, None, :]
        new = [_polar_unitaries(Y) for Y in layout.block_traces(X)]
        sig_new, w_new, u_new = _power_steps(commutators(new), w)
        iters += 1
        gained = sig_new > sigma + 1e-13 * np.maximum(1.0, sigma)
        keep = sig_new >= sigma
        stall[gained] = 0
        stall[~gained] += 1
        for old, nw in zip(Us, new):
            old[keep] = nw[keep]
        sigma = np.where(keep, sig_new, sigma)
        moved = keep & (sig_new > 0)
        w[moved] = w_new[moved]
        u[moved] = u_new[moved]
    norms = np.linalg.svd(commutators(Us), compute_uv=False)[:, 0]
    return norms, Us, iters, bool((stall < 2).any())


def _tangent_polish(Tt, layout, Us, max_rounds: int):
    """exp(i t H) ascent along the subgradient from a single restart state.

    Us holds one (1, K, s, s) array per block shape.
    """
    Ub = layout.assemble(Us)[0]
    F = Ub @ Tt - Tt @ Ub
    sigma, w, u = _top_pair(F)
    t = _STEP0
    evals = 0
    for _ in range(max_rounds):
        b = Tt @ u
        c = Tt.conj().T @ w
        a = Ub.conj().T @ w
        dvec = Ub.conj().T @ c
        G = 1j * (np.outer(b, a.conj()) - np.outer(u, dvec.conj()))
        G = (G + G.conj().T) / 2.0
        Hs = layout.block_traces(G[None])
        hnorm = max(max(float(np.linalg.norm(H, axis=(-2, -1)).max()) for H in Hs), 1e-30)
        expis = [_expi_factory(H / hnorm) for H in Hs]
        improved = False
        while t > 1e-9:
            cand = [u0 @ expi(t) for u0, expi in zip(Us, expis)]
            Ub_c = layout.assemble(cand)[0]
            F_c = Ub_c @ Tt - Tt @ Ub_c
            sig_c, w_c, u_c = _top_pair(F_c)
            evals += 1
            if sig_c > sigma + 1e-15:
                Us, Ub, F, sigma, w, u = cand, Ub_c, F_c, sig_c, w_c, u_c
                improved = True
                t = min(t * 2.0, 4.0)
                break
            t /= 2.0
        if not improved:
            break
    return sigma, Us, evals


def _alternating_polish(Tt, layout, Us, cycles: int = 30):
    """Alternate tangent ascent with polar re-descent until the gain dries up.

    The polar phase iteration can stall on creased level sets where the top
    singular pair of the commutator is nearly degenerate; a short tangent
    ascent breaks the tie and hands back a state the polar map improves again.
    """
    value = -np.inf
    evals = caps = 0
    for _ in range(cycles):
        v_t, Us, ev = _tangent_polish(Tt, layout, Us, 40)
        v_p, Us, iters, capped = _polar_phase_batch(Tt, layout, Us)
        evals += ev + iters
        caps += capped
        new = max(v_t, float(v_p[0]))
        if new - value < 1e-12:
            value = max(value, new)
            break
        value = max(value, new)
    return value, Us, evals, caps


def _contraction_sup(T, model: CommutantModel, cfg: NumericConfig):
    """Heuristic sup of ||WT - TW|| over contractions in the span commutant.

    Projected-ball ascent from eight seeded starts; only meaningful when the
    algebra is not selfadjoint (otherwise the unitary search already covers
    the extreme points).  The trials run as one (8, n, n) stack; each keeps
    its own step size and stops on its own, so each follows the path it
    would follow alone.
    """
    C = model.span_commutant
    if C.dim == 0:
        return 0.0
    n = C.ambient_dim
    Bs = C.basis
    S = C.space.stack

    def score(W):
        """Top singular value and pair (w, u) of each W T - T W."""
        UU, s, Vh = np.linalg.svd(W @ T - T @ W)
        return s[:, 0], UU[:, :, 0], Vh[:, 0, :].conj()

    def clip_to_feasible(W):
        nrm = np.empty(len(W))
        todo = np.arange(len(W))
        for _ in range(4):
            U, s, Vh = np.linalg.svd(W[todo])
            nrm[todo] = s[:, 0]
            over = s[:, 0] > 1.0 + 1e-12
            if not over.any():
                break
            todo, U, s, Vh = todo[over], U[over], s[over], Vh[over]
            Wc = ((U * np.minimum(s, 1.0)[:, None, :]) @ Vh).reshape(-1, n * n)
            W[todo] = ((Wc @ S.conj().T) @ S).reshape(-1, n, n)
        else:
            # rows clipped in the last round have no current norm yet
            nrm[todo] = np.linalg.svd(W[todo], compute_uv=False)[:, 0]
        return W / np.maximum(nrm, 1.0)[:, None, None]

    coeffs = []
    for trial in range(8):
        rng = cfg.rng(207, trial)
        coeffs.append(rng.standard_normal(C.dim) + 1j * rng.standard_normal(C.dim))
    W = clip_to_feasible(np.tensordot(np.stack(coeffs), Bs, axes=1))
    eta = np.full(len(W), 0.5)
    # each trial keeps the singular pair that scored its current W, so a
    # gradient step needs no fresh SVD
    val, w, u = score(W)
    live = np.arange(len(W))
    for _ in range(60):
        if live.size == 0:
            break
        wl, ul = w[live], u[live]
        K = (ul @ T.T)[:, :, None] * wl.conj()[:, None, :] - ul[:, :, None] * (
            wl @ T.conj()
        ).conj()[:, None, :]
        g = np.einsum("kab,tba->tk", Bs, K)
        Wc = clip_to_feasible(
            W[live] + eta[live][:, None, None] * np.tensordot(np.conj(g), Bs, axes=1)
        )
        vc, wc, uc = score(Wc)
        up = vc > val[live] + 1e-12
        W[live[up]] = Wc[up]
        val[live[up]], w[live[up]], u[live[up]] = vc[up], wc[up], uc[up]
        eta[live[up]] = np.minimum(eta[live[up]] * 1.5, 2.0)
        eta[live[~up]] /= 2.0
        live = live[eta[live] >= 1e-6]
    return float(max(0.0, val.max()))


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
    non-selfadjoint A the details also carry a separately estimated sup
    over contractions of the plain commutant A'.

    The report is a bracket: lower_bound is the value of the ascent's
    witness unitary, and upper_bound is 2 dist(T, A'') from the certified
    distance, or with compute_upper=False the cheaper 2 ||T - P T|| for
    the orthogonal projection P onto A''.  converged means the bracket
    closed to 1e-6 relative to max(1, ||T||).  As diagnostics only,
    details["restart_consensus"] counts the starts that reached the best
    value and details["polar_cap_hits"] the polar phases that stopped at
    their iteration cap with a restart still gaining.
    """
    if model is None:
        model = commutant_model(A, ambient, cfg)
    Tm = as_matrix(T, dim=ambient.ambient_dim)
    st = model.structure
    scale = max(1.0, op_norm(Tm))
    if model.trivial:
        n = ambient.ambient_dim
        details = {"restart_consensus": cfg.opt_restarts, "polar_cap_hits": 0}
        if not A.selfadjoint:
            details["contraction_sup"] = _contraction_sup(Tm, model, cfg)
        return _report(0.0, np.eye(n, dtype=np.complex128), 0.0, 0.0, 0, scale, details)
    W = st.unitary
    Tt = W.conj().T @ Tm @ W
    layout = st.scatter
    draws = []
    for restart in range(cfg.opt_restarts):
        rng = cfg.rng(205, restart)
        draws.append(
            layout.group([
                rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
                for s, _ in st.blocks
            ])
        )
    Us = [np.linalg.qr(np.stack(group))[0] for group in zip(*draws)]
    sigma, Us, total_iters, caps = _polar_phase_batch(Tt, layout, Us)
    order = np.argsort(-sigma)
    value = -np.inf
    best_state = None
    polished = []
    for idx in order[:2]:
        state = [u[idx : idx + 1].copy() for u in Us]
        val, state, evals, polish_caps = _alternating_polish(Tt, layout, state)
        total_iters += evals
        caps += polish_caps
        polished.append(val)
        if val > value:
            value, best_state = val, state
    votes = np.concatenate([sigma, np.asarray(polished)])
    details = {
        "restart_consensus": int(np.sum(value - votes <= _GAP_TOL * scale)),
        "polar_cap_hits": int(caps),
    }
    witness = W @ layout.assemble(best_state)[0] @ W.conj().T
    # every U in the commutant commutes with A'', so ||UT - TU|| <= 2 ||T - a||
    if compute_upper:
        upper = 2.0 * dist_opnorm(Tm, model.bicommutant.space, cfg).value
    else:
        upper = 2.0 * op_norm(Tm - model.bicommutant.space.project(Tm))
    if not A.selfadjoint:
        details["contraction_sup"] = _contraction_sup(Tm, model, cfg)
    return _report(value, witness, value, max(upper, value), total_iters, scale, details)


def sampling_seminorm_bound(
    T,
    A: MatrixAlgebra,
    ambient: MatrixAlgebra,
    num_samples: int,
    cfg: NumericConfig = DEFAULT_CONFIG,
    model: CommutantModel | None = None,
) -> float:
    """Monte-Carlo lower bound: max ||UT - TU|| over Haar commutant unitaries.

    Independent of the ascent path; always at most the true sup.
    """
    if model is None:
        model = commutant_model(A, ambient, cfg)
    Tm = as_matrix(T, dim=ambient.ambient_dim)
    st = model.structure
    if model.trivial or num_samples <= 0:
        return 0.0
    W = st.unitary
    Tt = W.conj().T @ Tm @ W
    layout = st.scatter
    rng = cfg.rng(206)
    best = 0.0
    chunk = 2000
    done = 0
    while done < num_samples:
        batch = min(chunk, num_samples - done)
        draws = [haar_unitaries(rng, s, batch) for s, _ in st.blocks]
        Ub = layout.assemble(layout.group(draws))
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
        rng = cfg.rng(key, i)
        coeff = rng.standard_normal(ambient.dim) + 1j * rng.standard_normal(ambient.dim)
        T = np.tensordot(coeff, ambient.basis, axes=1)
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
