"""Catalog of concrete constructions with machine-checkable claims.

Each builder returns the raw object (an algebra or a matrix); each
``*_report`` function packages a deterministic check of the advertised
property into a plain dict of Python scalars, so reports serialize to
stable JSON.  ``run_gallery`` executes the catalog in a fixed order.

The reports avoid numpy scalar types on purpose: every number is passed
through float()/int() so that json.dumps output is reproducible across
platforms and numpy versions.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    MatrixAlgebra,
    algebra_from_space,
    block_algebra,
    double_commutant,
    full_matrix_algebra,
    generate_algebra,
    is_normal,
    relative_commutant,
)
from .config import DEFAULT_CONFIG, InvalidInputError, NumericConfig
from .linalg import (
    OperatorSubspace,
    as_matrix,
    commutator,
    direct_sum,
    haar_unitary,
    op_norm,
    orthonormalize,
    random_matrix,
    subspace_distance,
    subspace_equal,
)

__all__ = [
    "selfcommutant_triangular",
    "corner_traceless_algebra",
    "ramp_weighted_shift",
    "ramp_shift_report",
    "paired_copies_report",
    "commutative_normality_scan",
    "polynomial_normality_sweep",
    "structure_stability_report",
    "GALLERY",
    "run_gallery",
]


def _unit(i: int, j: int, n: int) -> np.ndarray:
    M = np.zeros((n, n), dtype=np.complex128)
    M[i, j] = 1.0
    return M


# ---------------------------------------------------------------------------
# two 3x3 commutative algebras that equal their own relative commutant


def selfcommutant_triangular(variant: int) -> MatrixAlgebra:
    """One of two 3x3 commutative unital algebras equal to their own commutant.

    Variant 1 is spanned by the identity and the strictly upper units in
    row one; variant 2 by the identity and the strictly upper units in
    column three.  Both are non-selfadjoint, and for both the relative
    commutant inside the full 3x3 algebra is the algebra itself.
    """
    if variant not in (1, 2):
        raise InvalidInputError("variant must be 1 or 2")
    if variant == 1:
        basis = [np.eye(3, dtype=np.complex128), _unit(0, 1, 3), _unit(0, 2, 3)]
    else:
        basis = [np.eye(3, dtype=np.complex128), _unit(1, 2, 3), _unit(0, 2, 3)]
    return algebra_from_space(orthonormalize(basis, ambient_dim=3))


def selfcommutant_report(cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    ambient = full_matrix_algebra(3)
    out = {"name": "selfcommutant-triangular", "items": [], "passed": True}
    for variant in (1, 2):
        A = selfcommutant_triangular(variant)
        C = relative_commutant(A, ambient, cfg)
        dist = float(subspace_distance(C.space, A.space))
        normal, _ = is_normal(A, ambient, cfg)
        ok = dist < 1e-9 and bool(normal) and A.dim == 3
        out["items"].append(
            {
                "variant": variant,
                "dim": int(A.dim),
                "commutant_dim": int(C.dim),
                "self_commutant_distance": dist,
                "normal": bool(normal),
                "passed": ok,
            }
        )
        out["passed"] = out["passed"] and ok
    out["claim"] = "each algebra equals its own relative commutant, hence is normal"
    return out


# ---------------------------------------------------------------------------
# the 4x4 commutative algebra that is not normal


def corner_traceless_algebra() -> MatrixAlgebra:
    """Scalars plus a traceless 2x2 corner block, inside the 4x4 matrices.

    Elements look like [[a*I, A], [0, a*I]] with trace(A) = 0.  Products of
    the strictly block-upper parts vanish, so the algebra is commutative
    and unital of dimension 4.  Its double commutant drops the trace
    restriction and has dimension 5, so the algebra is not normal.
    """
    corner = lambda A: np.block(
        [[np.zeros((2, 2)), A], [np.zeros((2, 2)), np.zeros((2, 2))]]
    ).astype(np.complex128)
    basis = [
        np.eye(4, dtype=np.complex128),
        corner(np.diag([1.0, -1.0])),
        corner(_unit(0, 1, 2)),
        corner(_unit(1, 0, 2)),
    ]
    return algebra_from_space(orthonormalize(basis, ambient_dim=4))


def corner_traceless_report(cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    ambient = full_matrix_algebra(4)
    A = corner_traceless_algebra()
    D = double_commutant(A, ambient, cfg)
    normal, witness = is_normal(A, ambient, cfg)
    residual = float(A.space.residual(witness)) if witness is not None else 0.0
    ok = A.dim == 4 and D.dim == 5 and not normal
    return {
        "name": "corner-traceless-4x4",
        "dim": int(A.dim),
        "bicommutant_dim": int(D.dim),
        "normal": bool(normal),
        "witness_residual": residual,
        "passed": ok,
        "claim": "commutative unital, double commutant strictly larger by one dimension",
    }


# ---------------------------------------------------------------------------
# truncated weighted shift with linearly ramping weights


def ramp_weighted_shift(n: int, N: int) -> np.ndarray:
    """N x N weighted shift whose weights ramp 1/n, 2/n, ... up to 1.

    Equals P*S where S is the truncated shift and P is the diagonal ramp
    built from shift powers: the tail projection of order n+1 plus the
    rank-one spectral steps k/n at positions 1..n.  The commutator with
    the adjoint is diagonal with entries of size at most (2n-1)/n^2 away
    from the truncation edge; the edge itself contributes a spurious
    entry of size one because the finite corner of an isometry is not an
    isometry.
    """
    if n < 1:
        raise InvalidInputError("ramp parameter must be a positive integer")
    if N < 4 * n:
        raise InvalidInputError("truncation dimension must be at least 4n")
    weights = np.minimum(np.arange(1, N) / n, 1.0)
    return np.diag(weights, -1).astype(np.complex128)


def _interior_commutator_norm(T: np.ndarray, pad: int) -> float:
    C = commutator(T, T.conj().T)
    m = T.shape[0] - pad
    return float(op_norm(C[:m, :m]))


def ramp_shift_report(
    n: int = 10, N: int = 200, pad: int = 2, cfg: NumericConfig = DEFAULT_CONFIG
) -> dict:
    """Commutator-norm check for the ramp shift, with truncation control.

    The finite matrix is a corner of an operator on a one-sided sequence
    space; cutting a corner turns the last column into a spurious unit
    commutator entry.  The report therefore measures the commutator norm
    away from the edge and certifies stability by rebuilding at twice the
    truncation dimension: the interior entries do not depend on N at all,
    so the doubling slack is numerically zero.  The raw norm is reported
    alongside.
    """
    T = ramp_weighted_shift(n, N)
    raw = float(op_norm(commutator(T, T.conj().T)))
    interior = _interior_commutator_norm(T, pad)
    doubled = _interior_commutator_norm(ramp_weighted_shift(n, 2 * N), pad)
    slack = abs(doubled - interior)
    bound = 2.0 / n
    norm_T = float(op_norm(T))
    passed = slack < 0.02 and interior <= bound + slack and norm_T <= 2.0
    return {
        "name": "ramp-shift-commutator",
        "n": int(n),
        "N": int(N),
        "norm": norm_T,
        "raw_commutator_norm": raw,
        "interior_commutator_norm": interior,
        "doubling_slack": float(slack),
        "bound": float(bound),
        "passed": bool(passed),
        "claim": "interior commutator norm at most 2/n, stable under doubling the truncation",
    }


# ---------------------------------------------------------------------------
# paired copies: bicommutant of a diagonal embedding across a direct sum


def _distinct_eigenvalue_count(a: np.ndarray, cfg: NumericConfig) -> int:
    vals = np.sort(np.linalg.eigvalsh(a))
    scale = max(1.0, float(np.abs(vals).max())) if vals.size else 1.0
    count = 1
    for prev, cur in zip(vals[:-1], vals[1:]):
        if cur - prev > cfg.eq_tol * scale:
            count += 1
    return count


def paired_copies_report(a, cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Bicommutant of {I, a + a} inside the direct sum of two full blocks.

    The generator places the same self-adjoint matrix in both summands.
    Its relative bicommutant inside the block-diagonal ambient algebra
    decouples into an independent copy of the algebra generated by a in
    each summand, which strictly exceeds the diagonally embedded algebra
    whenever a has at least two distinct eigenvalues.
    """
    a = as_matrix(a)
    if op_norm(a - a.conj().T) > cfg.eq_tol * max(1.0, op_norm(a)):
        raise InvalidInputError("generator must be self-adjoint")
    k = a.shape[0]
    zero = np.zeros((k, k), dtype=np.complex128)
    B = block_algebra(((k, 1), (k, 1)))
    A = generate_algebra([direct_sum(a, a)], cfg)
    D = double_commutant(A, B, cfg)
    single = generate_algebra([a], cfg, star=True)
    paired = orthonormalize(
        [direct_sum(e, zero) for e in single.basis]
        + [direct_sum(zero, e) for e in single.basis],
        cfg,
    )
    equal = subspace_equal(D.space, paired, cfg)
    strict = D.dim > A.dim
    distinct = _distinct_eigenvalue_count(a, cfg)
    passed = bool(equal) and (strict or distinct < 2)
    return {
        "name": "paired-copies",
        "block_size": int(k),
        "algebra_dim": int(A.dim),
        "bicommutant_dim": int(D.dim),
        "paired_single_dim": int(2 * single.dim),
        "matches_paired_copies": bool(equal),
        "paired_distance": float(subspace_distance(D.space, paired)),
        "strict": bool(strict),
        "distinct_eigenvalues": int(distinct),
        "passed": passed,
        "claim": "bicommutant in the direct sum is an independent copy of the generated algebra per summand",
    }


# ---------------------------------------------------------------------------
# random commutative subalgebras and normality scans


def _random_poly_of(rng, X: np.ndarray, max_degree: int) -> np.ndarray:
    deg = int(rng.integers(1, max_degree + 1))
    coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    acc = np.zeros_like(X)
    for c in coeffs:
        acc = acc @ X + c * np.eye(X.shape[0])
    return acc


def _random_jordan_like(rng, n: int) -> np.ndarray:
    """Unitary conjugate of a bidiagonal matrix with repeated eigenvalues."""
    vals = rng.standard_normal(max(1, n // 2)) + 1j * rng.standard_normal(max(1, n // 2))
    diag = vals[rng.integers(0, len(vals), size=n)]
    J = np.diag(diag).astype(np.complex128)
    for i in range(n - 1):
        if rng.random() < 0.6:
            J[i, i + 1] = 1.0
    U = haar_unitary(rng, n)
    return U @ J @ U.conj().T


def _random_commutative(rng, n: int, cfg: NumericConfig) -> MatrixAlgebra:
    X = _random_jordan_like(rng, n) if rng.random() < 0.4 else random_matrix(rng, n)
    gens = [_random_poly_of(rng, X, n) for _ in range(int(rng.integers(1, 3)))]
    return generate_algebra(gens, cfg)


def commutative_normality_scan(
    n: int,
    trials: int,
    cfg: NumericConfig = DEFAULT_CONFIG,
    conjugates: int = 0,
) -> dict:
    """Normality counts over random commutative unital subalgebras.

    Random instances are unital algebras of polynomials in one random
    matrix (generic and defective spectra mixed), which are always
    commutative.  For ambient size 4 the scan can additionally inject the
    corner-traceless algebra and random unitary conjugates of it; these
    are expected to be non-normal, while for sizes 2 and 3 every
    commutative unital subalgebra must come back normal.
    """
    if n not in (2, 3, 4):
        raise InvalidInputError("scan covers ambient sizes 2, 3, 4")
    ambient = full_matrix_algebra(n)
    normal_count = 0
    for t in range(trials):
        rng = cfg.rng(301, n, t)
        A = _random_commutative(rng, n, cfg)
        flag, _ = is_normal(A, ambient, cfg)
        normal_count += int(flag)
    injected_non_normal = 0
    injected = 0
    if n == 4:
        seeds = [corner_traceless_algebra()]
        base = seeds[0]
        for c in range(conjugates):
            U = haar_unitary(cfg.rng(305, c), 4)
            conjugated = U @ base.basis @ U.conj().T
            seeds.append(algebra_from_space(orthonormalize(conjugated, ambient_dim=4), cfg))
        for A in seeds:
            flag, _ = is_normal(A, ambient, cfg)
            injected += 1
            injected_non_normal += int(not flag)
    if n in (2, 3):
        passed = normal_count == trials
    else:
        passed = injected_non_normal == injected and injected > 0
    return {
        "name": f"commutative-scan-{n}",
        "ambient": int(n),
        "trials": int(trials),
        "normal": int(normal_count),
        "non_normal": int(trials - normal_count),
        "injected": int(injected),
        "injected_non_normal": int(injected_non_normal),
        "passed": bool(passed),
        "claim": "commutative unital subalgebras are all normal exactly in ambient sizes 2 and 3",
    }


def polynomial_normality_sweep(
    dims, trials: int, cfg: NumericConfig = DEFAULT_CONFIG
) -> dict:
    """The unital polynomial algebra of one matrix is always normal.

    The double commutant of a single matrix is the algebra of polynomials
    in it, so these algebras equal their own bicommutant in every ambient
    size; the sweep checks that over random matrices with both generic
    and defective spectra.
    """
    per_dim = []
    passed = True
    for n in dims:
        ambient = full_matrix_algebra(n)
        normal_count = 0
        for t in range(trials):
            rng = cfg.rng(302, n, t)
            X = _random_jordan_like(rng, n) if t % 3 == 2 else random_matrix(rng, n)
            A = generate_algebra([X], cfg)
            flag, _ = is_normal(A, ambient, cfg)
            normal_count += int(flag)
        ok = normal_count == trials
        passed = passed and ok
        per_dim.append(
            {"ambient": int(n), "trials": int(trials), "normal": int(normal_count), "passed": ok}
        )
    return {
        "name": "polynomial-sweep",
        "per_dim": per_dim,
        "passed": bool(passed),
        "claim": "the unital polynomial algebra of a single matrix is normal",
    }


# ---------------------------------------------------------------------------
# stability of normality under direct sums and matrix ampliation


def _summand_menu(rng, cfg: NumericConfig):
    """A normal subalgebra of a small full algebra, varied by draw."""
    pick = int(rng.integers(0, 5))
    if pick == 0:
        m = int(rng.integers(1, 4))
        return full_matrix_algebra(m), m
    if pick == 1:
        m = int(rng.integers(2, 4))
        return generate_algebra([random_matrix(rng, m)], cfg), m
    if pick == 2:
        return selfcommutant_triangular(int(rng.integers(1, 3))), 3
    if pick == 3:
        return generate_algebra([_unit(0, 1, 2)], cfg), 2
    m = int(rng.integers(2, 4))
    H = random_matrix(rng, m)
    return generate_algebra([H + H.conj().T], cfg, star=True), m


def _ampliation(A: MatrixAlgebra, k: int, cfg: NumericConfig) -> MatrixAlgebra:
    basis = [
        np.kron(_unit(i, j, k), e) for i in range(k) for j in range(k) for e in A.basis
    ]
    return algebra_from_space(orthonormalize(basis, ambient_dim=k * A.ambient_dim), cfg)


def structure_stability_report(
    cfg: NumericConfig = DEFAULT_CONFIG, instances: int = 50
) -> dict:
    """Normality survives direct sums and full-matrix ampliation.

    Direct-sum instances assemble normal summands inside the compressed
    block-diagonal ambient algebra; ampliation instances tensor a normal
    inclusion with a full matrix factor.  Each instance first re-verifies
    the ingredient normality, then checks the assembled inclusion.
    """
    checks = []
    failures = 0
    for idx in range(instances):
        rng = cfg.rng(303, idx)
        fewest = 2 if idx % 2 == 0 else 1
        parts = [_summand_menu(rng, cfg) for _ in range(int(rng.integers(fewest, fewest + 2)))]
        sizes = [m for _, m in parts]
        total = sum(sizes)
        ingredient_ok = all(is_normal(A, full_matrix_algebra(m), cfg)[0] for A, m in parts)
        zeros = [np.zeros((m, m)) for m in sizes]
        basis = [
            direct_sum(*zeros[:i], e, *zeros[i + 1 :])
            for i, (A, _) in enumerate(parts)
            for e in A.basis
        ]
        if idx % 2 == 0:
            summed = algebra_from_space(orthonormalize(basis, ambient_dim=total), cfg)
            ambient = block_algebra([(m, 1) for m in sizes])
            flag, _ = is_normal(summed, ambient, cfg)
            kind = "direct-sum"
            described = [int(m) for m in sizes]
        else:
            k = 2
            U = haar_unitary(rng, total)
            ebasis = [U @ e @ U.conj().T for e in basis]
            E = algebra_from_space(orthonormalize(ebasis, ambient_dim=total), cfg)
            D = block_algebra([(m, 1) for m in sizes], U)
            ingredient_ok = ingredient_ok and is_normal(E, D, cfg)[0]
            flag, _ = is_normal(_ampliation(E, k, cfg), _ampliation(D, k, cfg), cfg)
            kind = "ampliation"
            described = [int(k)] + [int(m) for m in sizes]
        ok = bool(ingredient_ok) and bool(flag)
        failures += int(not ok)
        checks.append({"kind": kind, "shape": described, "passed": ok})
    return {
        "name": "structure-stability",
        "instances": int(instances),
        "failures": int(failures),
        "checks": checks,
        "passed": failures == 0,
        "claim": "normality is preserved by compressed direct sums and by matrix ampliation",
    }


# ---------------------------------------------------------------------------
# catalog


def _paired_copies_catalog(cfg: NumericConfig) -> dict:
    fixed = paired_copies_report(np.diag([1.0, 2.0]), cfg)
    rng = cfg.rng(304)
    H = random_matrix(rng, 3)
    rand = paired_copies_report(H + H.conj().T, cfg)
    return {
        "name": "paired-copies",
        "fixed": fixed,
        "random": rand,
        "passed": fixed["passed"] and rand["passed"],
        "claim": fixed["claim"],
    }


GALLERY = (
    ("selfcommutant-triangular", selfcommutant_report),
    ("corner-traceless-4x4", corner_traceless_report),
    ("ramp-shift-commutator", lambda cfg: ramp_shift_report(10, 200, cfg=cfg)),
    ("paired-copies", _paired_copies_catalog),
    ("commutative-scan-2", lambda cfg: commutative_normality_scan(2, 50, cfg)),
    ("commutative-scan-3", lambda cfg: commutative_normality_scan(3, 50, cfg)),
    ("commutative-scan-4", lambda cfg: commutative_normality_scan(4, 20, cfg, conjugates=5)),
    ("polynomial-sweep", lambda cfg: polynomial_normality_sweep((2, 3, 4, 5, 6), 25, cfg)),
    ("structure-stability", lambda cfg: structure_stability_report(cfg, instances=16)),
)


def run_gallery(cfg: NumericConfig = DEFAULT_CONFIG, names=None) -> dict:
    """Run catalog items in fixed order; names filters by exact item name."""
    wanted = set(names) if names is not None else None
    items = []
    for name, fn in GALLERY:
        if wanted is not None and name not in wanted:
            continue
        items.append(fn(cfg))
    if wanted is not None:
        missing = wanted - {name for name, _ in GALLERY}
        if missing:
            raise InvalidInputError(f"unknown gallery items: {sorted(missing)}")
    return {
        "catalog": [name for name, _ in GALLERY],
        "items": items,
        "passed": all(item["passed"] for item in items),
    }
