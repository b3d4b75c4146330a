"""Distance and derivation-seminorm tests.

Oracles used here are independent of the solvers under test: refining grid
search and Nelder-Mead for distances, an exhaustive parametrization of the
2x2 unitary group and blockwise Haar sampling for the seminorm.
"""

import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.optimize

from commutant import seminorms
from commutant.algebra import (
    MatrixAlgebra,
    algebra_from_space,
    block_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    generate_algebra,
    scalar_algebra,
)
from commutant.config import DEFAULT_CONFIG, InvalidInputError
from commutant.linalg import (
    OperatorSubspace,
    haar_unitary,
    op_norm,
    orthonormalize,
    random_matrix,
    subspace_contains,
)
from commutant.seminorms import (
    commutant_model,
    composition_inequality_check,
    derivation_seminorm,
    dist_opnorm,
    kn_lower_estimate,
    sampling_seminorm_bound,
)

CFG = DEFAULT_CONFIG


def grid_scalar_distance(T, rounds=5, grid=41):
    """Refining grid search for min over lambda of ||T - lambda I||."""
    n = T.shape[0]
    center = 0.0 + 0.0j
    half = float(np.linalg.svd(T, compute_uv=False)[0]) + 1.0
    best = np.inf
    for _ in range(rounds):
        re = np.linspace(center.real - half, center.real + half, grid)
        im = np.linspace(center.imag - half, center.imag + half, grid)
        lam = re[:, None] + 1j * im[None, :]
        batch = T[None, None] - lam[..., None, None] * np.eye(n)
        sv = np.linalg.svd(batch.reshape(-1, n, n), compute_uv=False)[:, 0]
        k = int(np.argmin(sv))
        best = float(sv[k])
        center = lam.reshape(-1)[k]
        half = (re[1] - re[0]) * 1.5
    return best


def nelder_mead_distance(T, V, starts=4):
    """Direct minimization of the true objective in subspace coordinates."""
    n = T.shape[0]
    d = V.dim

    def val(r):
        x = r[:d] + 1j * r[d:]
        return float(
            np.linalg.svd(
                T - (V.stack.T @ x).reshape(n, n), compute_uv=False
            )[0]
        )

    best = np.inf
    for s in range(starts):
        r0 = (
            np.zeros(2 * d)
            if s == 0
            else np.random.default_rng(s).standard_normal(2 * d)
        )
        res = scipy.optimize.minimize(
            val, r0, method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-13, "maxiter": 20000,
                     "maxfev": 20000},
        )
        best = min(best, float(res.fun))
    return best


def exhaustive_u2_seminorm(T, grid=60):
    """Max ||UT - TU|| over a dense grid of U(2) mod global phase."""
    theta = np.linspace(0.0, np.pi / 2, grid)
    alpha = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    beta = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    th, al, be = np.meshgrid(theta, alpha, beta, indexing="ij")
    ct, st = np.cos(th).ravel(), np.sin(th).ravel()
    ea, eb = np.exp(1j * al).ravel(), np.exp(1j * be).ravel()
    U = np.empty((ct.size, 2, 2), dtype=complex)
    U[:, 0, 0] = ct * ea
    U[:, 0, 1] = st * eb
    U[:, 1, 0] = -st * np.conj(eb)
    U[:, 1, 1] = ct * np.conj(ea)
    F = U @ T - T @ U
    return float(np.linalg.svd(F, compute_uv=False)[:, 0].max())


# ---------------------------------------------------------------------------
# dist_opnorm


def test_dist_scalar_known_values():
    S2 = scalar_algebra(2)
    assert abs(dist_opnorm(np.diag([1.0, 0.0]), S2.space, CFG).value - 0.5) < 1e-9
    assert abs(dist_opnorm(np.diag([1.0, -1.0]), S2.space, CFG).value - 1.0) < 1e-9


def test_dist_matches_grid_oracle_scalars():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        Sn = scalar_algebra(n)
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        oracle = grid_scalar_distance(T)
        rep = dist_opnorm(T, Sn.space, CFG)
        assert abs(rep.value - oracle) < 1e-4
        assert rep.converged


def test_dist_matches_nelder_mead_on_diagonal():
    rng = np.random.default_rng(12)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    D3 = diagonal_algebra(3)
    oracle = nelder_mead_distance(T, D3.space)
    rep = dist_opnorm(T, D3.space, CFG)
    assert rep.value <= oracle + 1e-8
    assert abs(rep.value - oracle) < 1e-6


def test_dist_member_is_zero_with_projection_witness():
    D3 = diagonal_algebra(3)
    T = np.diag([2.0, 3.0, 4.0]).astype(complex)
    rep = dist_opnorm(T, D3.space, CFG)
    assert rep.value < 1e-9
    assert np.linalg.norm(rep.witness - T) < 1e-7
    assert rep.converged


def test_dist_report_invariants():
    # generic T, and near-member T = s (a + eps E) for a in V at small and
    # large scales, where the barrier starts near or at the optimum
    rng = np.random.default_rng(13)
    X = np.random.default_rng(14).standard_normal((6, 6)) + 0j
    blocks = X.copy()
    blocks[:2, 2:] = 0.0
    blocks[2:, :2] = 0.0
    algebras = [diagonal_algebra(n) for n in (2, 3, 4, 5)] + [
        generate_algebra([X], CFG),  # polynomial algebra of a generic X
        generate_algebra([blocks], CFG, star=True),  # M_2 (+) M_4
    ]
    for A in algebras:
        n = A.ambient_dim
        Ts = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
        a = A.space.random_element(rng)
        E = random_matrix(rng, n)
        E /= op_norm(E)
        Ts += [s * (a + eps * E) for eps in (0.0, 1e-9, 1e-6) for s in (1e-3, 1e3)]
        for T in Ts:
            rep = dist_opnorm(T, A.space, CFG)
            scale = max(1.0, op_norm(T))
            assert 0.0 <= rep.lower_bound <= rep.value <= rep.upper_bound
            assert rep.converged
            assert rep.gap <= 1e-6 * scale
            # witness is the approximant: it lies in the subspace and attains value
            assert A.space.residual(rep.witness) < 1e-8
            assert abs(op_norm(T - rep.witness) - rep.value) < 1e-10


def test_dist_barrier_failure_is_uncertified_projection(monkeypatch):
    monkeypatch.setattr(seminorms, "_barrier_solve", lambda *args: None)
    rng = np.random.default_rng(15)
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    D4 = diagonal_algebra(4)
    rep = dist_opnorm(T, D4.space, CFG)
    assert not rep.converged
    assert 0.0 <= rep.lower_bound <= rep.value
    assert D4.space.residual(rep.witness) < 1e-8
    assert abs(op_norm(T - rep.witness) - rep.value) < 1e-12


def _run_fresh(code, env):
    """Run code in a new interpreter that imports this checkout's package."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_optimize_out(package_env):
    # scipy.linalg costs about 0.25 s and 28 MB, the process pool about
    # 17 ms; a bare `import commutant` and plain computations load neither
    _run_fresh(
        """
        import sys
        import numpy as np
        import commutant

        def heavy():
            return sorted(
                m for m in sys.modules
                if m == "scipy" or m.startswith(("scipy.", "multiprocessing", "concurrent.futures"))
            )

        assert not heavy(), heavy()
        cfg = commutant.NumericConfig()
        C = commutant.relative_commutant([np.diag([1.0, 2.0, 3.0])], commutant.full_matrix_algebra(3), cfg)
        assert C.dim == 3
        T = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
        A, M = commutant.diagonal_algebra(2), commutant.full_matrix_algebra(2)
        assert commutant.derivation_seminorm(T, A, M, cfg).value > 0
        assert not heavy(), heavy()
        """,
        package_env,
    )


def test_gesvd_retry_imports_scipy_on_demand(package_env):
    # the retry path works in a process that has not loaded scipy before
    _run_fresh(
        """
        import sys
        import numpy as np
        import commutant

        real, calls = np.linalg.svd, []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(*args, **kwargs)

        assert "scipy.linalg" not in sys.modules
        np.linalg.svd = fails_once
        cfg = commutant.NumericConfig()
        C = commutant.relative_commutant([np.diag([1.0, 2.0, 3.0])], commutant.full_matrix_algebra(3), cfg)
        assert calls and "scipy.linalg" in sys.modules
        assert commutant.subspace_equal(C.space, commutant.diagonal_algebra(3).space, cfg)
        """,
        package_env,
    )


def test_dist_empty_subspace_is_norm():
    empty = orthonormalize([np.zeros((2, 2))], CFG, 2)
    T = np.array([[0.0, 3.0], [0.0, 0.0]], dtype=complex)
    rep = dist_opnorm(T, empty, CFG)
    assert abs(rep.value - 3.0) < 1e-12
    assert rep.converged


def test_dist_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        dist_opnorm(np.eye(3), diagonal_algebra(2).space, CFG)


# ---------------------------------------------------------------------------
# derivation seminorm


def test_seminorm_u2_exhaustive_oracle():
    T = np.diag([1.0, 0.0]).astype(complex)
    oracle = exhaustive_u2_seminorm(T)
    rep = derivation_seminorm(T, scalar_algebra(2), full_matrix_algebra(2), CFG)
    assert abs(oracle - 1.0) < 1e-2
    assert rep.value >= oracle - 1e-9
    assert abs(rep.value - 1.0) < 1e-8


def test_seminorm_known_values():
    S2 = scalar_algebra(2)
    M2 = full_matrix_algebra(2)
    rep = derivation_seminorm(np.diag([1.0, -1.0]), S2, M2, CFG)
    assert abs(rep.value - 2.0) < 1e-8
    # off-diagonal unit against the diagonal masa: distance 1, seminorm 2
    D2 = diagonal_algebra(2)
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rep = derivation_seminorm(E12, D2, M2, CFG)
    assert abs(rep.value - 2.0) < 1e-8
    assert abs(dist_opnorm(E12, D2.space, CFG).value - 1.0) < 1e-9


def test_seminorm_vanishes_on_double_commutant():
    D3 = diagonal_algebra(3)
    M3 = full_matrix_algebra(3)
    rep = derivation_seminorm(np.diag([1.0, 2.0, 5.0]), D3, M3, CFG)
    assert rep.value < 1e-12
    rep = derivation_seminorm(np.eye(4), scalar_algebra(4), full_matrix_algebra(4), CFG)
    assert rep.value < 1e-12


def test_seminorm_witness_properties():
    rng = np.random.default_rng(21)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    D3 = diagonal_algebra(3)
    M3 = full_matrix_algebra(3)
    model = commutant_model(D3, M3, CFG)
    rep = derivation_seminorm(T, D3, M3, CFG, model)
    W = rep.witness
    assert np.linalg.norm(W.conj().T @ W - np.eye(3)) < 1e-10
    assert model.star_commutant.space.residual(W) < 1e-8
    assert abs(op_norm(W @ T - T @ W) - rep.value) < 1e-10


def test_seminorm_equals_twice_distance_for_scalars():
    # n = 8 is the last size with Newton steps (p = 63 directions); at
    # n = 9 and 11 polar steps alone run to the stall
    rng = np.random.default_rng(22)
    for n in (2, 3, 4, 8, 9, 11):
        Sn = scalar_algebra(n)
        Mn = full_matrix_algebra(n)
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dn = derivation_seminorm(T, Sn, Mn, CFG, compute_upper=False)
        dd = dist_opnorm(T, Sn.space, CFG)
        assert abs(dn.value - 2.0 * dd.value) <= 1e-5 * (1.0 + op_norm(T))


def test_seminorm_two_blocks_of_one_shape():
    # A = span{P1, P2} in M4 has commutant M2 (+) M2: two blocks of one
    # shape, ascended as one stacked group.  On T = T11 (+) T22 the sup
    # splits blockwise, and Stampfli's identity gives each block's share.
    P1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    A = algebra_from_space(orthonormalize([P1, np.eye(4) - P1], CFG, 4))
    M4 = full_matrix_algebra(4)
    model = commutant_model(A, M4, CFG)
    assert model.structure.blocks == ((2, 1), (2, 1))
    rng = np.random.default_rng(28)
    for _ in range(3):
        T11 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        T22 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        T = np.zeros((4, 4), dtype=complex)
        T[:2, :2], T[2:, 2:] = T11, T22
        exact = 2.0 * max(grid_scalar_distance(T11), grid_scalar_distance(T22))
        rep = derivation_seminorm(T, A, M4, CFG, model, compute_upper=False)
        assert abs(rep.value - exact) < 1e-4
        assert abs(op_norm(rep.witness @ T - T @ rep.witness) - rep.value) < 1e-10


def test_masa_distance_bounded_by_seminorm():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        Dn = diagonal_algebra(n)
        Mn = full_matrix_algebra(n)
        model = commutant_model(Dn, Mn, CFG)
        for _ in range(5):
            T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            dn = derivation_seminorm(T, Dn, Mn, CFG, model, compute_upper=False)
            dd = dist_opnorm(T, Dn.space, CFG)
            assert dd.value <= dn.value + 1e-6


def test_seminorm_laws():
    rng = np.random.default_rng(24)
    D3 = diagonal_algebra(3)
    M3 = full_matrix_algebra(3)
    model = commutant_model(D3, M3, CFG)

    def dn(X):
        return derivation_seminorm(X, D3, M3, CFG, model, compute_upper=False).value

    S = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    scale = max(1.0, op_norm(S) + op_norm(T))
    assert dn(S + T) <= dn(S) + dn(T) + 1e-7 * scale
    assert abs(dn(2.5j * T) - 2.5 * dn(T)) <= 1e-7 * scale
    assert abs(dn(T.conj().T) - dn(T)) <= 1e-7 * scale


def test_seminorm_chain_and_upper_bound():
    rng = np.random.default_rng(25)
    D3 = diagonal_algebra(3)
    M3 = full_matrix_algebra(3)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    dn = derivation_seminorm(T, D3, M3, CFG)
    dd = dist_opnorm(T, D3.space, CFG)
    assert dn.value <= 2.0 * dd.value + 1e-6
    assert dn.value <= dn.upper_bound + 1e-12
    assert dn.upper_bound <= 2.0 * dd.value + 1e-6 * max(1.0, op_norm(T))


def test_converged_means_the_bracket_closed():
    rng = np.random.default_rng(28)
    reports = []
    for n in (2, 3, 4):
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Sn, Mn = scalar_algebra(n), full_matrix_algebra(n)
        dn = derivation_seminorm(T, Sn, Mn, CFG)
        # Stampfli: over all unitaries the seminorm is twice the distance
        assert dn.converged
        reports += [(T, dn), (T, dist_opnorm(T, Sn.space, CFG))]
    T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    D5, M5 = diagonal_algebra(5), full_matrix_algebra(5)
    dn = derivation_seminorm(T, D5, M5, CFG)
    # the unitaries of a masa's commutant reach less than 2 dist(T, A'')
    assert not dn.converged
    reports += [(T, dn), (T, dist_opnorm(T, D5.space, CFG))]
    reports.append((T, derivation_seminorm(T, D5, M5, CFG, compute_upper=False)))
    for T, rep in reports:
        scale = max(1.0, op_norm(T))
        assert rep.lower_bound <= rep.value <= rep.upper_bound
        assert rep.converged == (rep.upper_bound - rep.lower_bound <= 1e-6 * scale)


def _ampliated(A: MatrixAlgebra) -> MatrixAlgebra:
    basis = [np.kron(B, np.eye(2)) for B in A.basis]
    return algebra_from_space(orthonormalize(basis, CFG, 2 * A.ambient_dim))


def test_ampliated_ascent_reaches_twice_the_distance():
    # the derivation of T on A' has cb norm 2 dist(T, A'') (Christensen),
    # and its 2-ampliation, the seminorm of T (x) I_2 for A (x) I_2, attains
    # it on these inputs; so the ascent at ambient size 2n must reach the
    # certified distance: a check of its global optimum at sizes where Haar
    # sampling cannot follow
    rng = np.random.default_rng(29)
    for n, blocks in ((4, ((1, 2), (2, 1))), (5, ((1, 2), (2, 1), (1, 1)))):
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        algebras = [
            diagonal_algebra(n),
            generate_algebra([H + H.conj().T], CFG, star=True),
            block_algebra(blocks, haar_unitary(rng, n)),
        ]
        Mn, M2n = full_matrix_algebra(n), full_matrix_algebra(2 * n)
        for A in algebras:
            bicommutant = commutant_model(A, Mn, CFG).bicommutant
            A2 = _ampliated(A)
            model2 = commutant_model(A2, M2n, CFG)
            for _ in range(4):
                T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                dist = dist_opnorm(T, bicommutant.space, CFG)
                assert dist.converged
                dn = derivation_seminorm(
                    np.kron(T, np.eye(2)), A2, M2n, CFG, model2, compute_upper=False
                )
                scale = max(1.0, op_norm(T))
                assert abs(dn.value - 2.0 * dist.value) <= 1e-6 * scale


def test_seminorm_unitary_invariance():
    rng = np.random.default_rng(26)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    D3 = diagonal_algebra(3)
    M3 = full_matrix_algebra(3)
    V = haar_unitary(rng, 3)
    conj_basis = [V @ B @ V.conj().T for B in D3.basis]
    A_conj = algebra_from_space(orthonormalize(conj_basis, CFG, 3))
    a = derivation_seminorm(T, D3, M3, CFG, compute_upper=False).value
    b = derivation_seminorm(
        V @ T @ V.conj().T, A_conj, M3, CFG, compute_upper=False
    ).value
    assert abs(a - b) < 1e-8 * max(1.0, op_norm(T))


def test_seminorm_beats_haar_sampling_oracle():
    rng = np.random.default_rng(27)
    for n, seed in ((2, 0), (3, 1), (3, 2)):
        gen_rng = np.random.default_rng(100 + seed)
        H = gen_rng.standard_normal((n, n)) + 1j * gen_rng.standard_normal((n, n))
        H = (H + H.conj().T) / 2.0
        A = generate_algebra([H], CFG)
        Mn = full_matrix_algebra(n)
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        model = commutant_model(A, Mn, CFG)
        dn = derivation_seminorm(T, A, Mn, CFG, model, compute_upper=False)
        oracle = sampling_seminorm_bound(T, A, Mn, 10_000, CFG, model)
        assert dn.value >= oracle - 1e-9
        if dn.value > 1e-8:
            assert (dn.value - oracle) / dn.value <= 0.02


def _svd_polar_phase_batch(Tt, st, Ub):
    """Reference polar phase: a full SVD of every new commutator stack."""
    R = len(Ub)
    UU, sv, Vh = np.linalg.svd(Ub @ Tt - Tt @ Ub)
    sigma, w, u = sv[:, 0], UU[:, :, 0], Vh[:, 0, :].conj()
    stall = np.zeros(R, dtype=int)
    iters = 0
    while iters < seminorms._MAX_ITERS and (stall < 2).any():
        b = np.einsum("ij,rj->ri", Tt, u)
        c = np.einsum("ji,rj->ri", Tt.conj(), w)
        X = b[:, :, None] * w.conj()[:, None, :] - u[:, :, None] * c.conj()[:, None, :]
        Ub_new = st.polar(X)
        UU, sv, Vh = np.linalg.svd(Ub_new @ Tt - Tt @ Ub_new)
        sig_new = sv[:, 0]
        iters += 1
        gained = sig_new > sigma + 1e-13 * np.maximum(1.0, sigma)
        keep = sig_new >= sigma
        stall[gained] = 0
        stall[~gained] += 1
        Ub[keep] = Ub_new[keep]
        sigma = np.where(keep, sig_new, sigma)
        w[keep] = UU[keep, :, 0]
        u[keep] = Vh[keep, 0, :].conj()
    return sigma, Ub, iters, bool((stall < 2).any())


def _sweep_algebras(n, rng):
    """Scalars, masa, M_n, and block algebras whose commutants have an s = 2
    and an s = 3 block, the last two in a Haar-random basis."""
    return {
        "scalars": scalar_algebra(n),
        "masa": diagonal_algebra(n),
        "full": full_matrix_algebra(n),
        "s2": block_algebra(((1, 2),) + ((1, 1),) * (n - 2), haar_unitary(rng, n)),
        "s3": block_algebra(((1, 3),) + ((1, 1),) * (n - 3), haar_unitary(rng, n)),
    }


def test_power_tracked_ascent_matches_full_svd_reference(monkeypatch):
    # the polar phase tracks its singular pair by power steps; against the
    # same ascent with a full SVD per step it must not lose value
    rng = np.random.default_rng(30)
    for n in (3, 4, 5, 6):
        Mn = full_matrix_algebra(n)
        for kind, A in _sweep_algebras(n, rng).items():
            model = commutant_model(A, Mn, CFG)
            for _ in range(2 if kind == "full" else 7):
                T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                new = derivation_seminorm(T, A, Mn, CFG, model, compute_upper=False)
                with monkeypatch.context() as m:
                    m.setattr(seminorms, "_polar_phase_batch", _svd_polar_phase_batch)
                    ref = derivation_seminorm(T, A, Mn, CFG, model, compute_upper=False)
                scale = max(1.0, op_norm(T))
                assert new.value >= ref.value - 1e-9 * scale, (kind, n)


def test_seminorm_of_bicommutant_element_is_zero_without_warnings():
    # zero commutators: F* w vanishes in the power step, which must neither
    # divide by zero nor move the ascent
    rng = np.random.default_rng(31)
    n = 4
    Mn = full_matrix_algebra(n)
    blocks = block_algebra(((2, 1), (1, 2)), haar_unitary(rng, n))
    a = rng.standard_normal(blocks.dim) + 1j * rng.standard_normal(blocks.dim)
    cases = [
        (diagonal_algebra(n), np.zeros((n, n))),
        (scalar_algebra(n), np.zeros((n, n))),
        (blocks, np.zeros((n, n))),
        (diagonal_algebra(n), np.diag(rng.standard_normal(n))),
        (blocks, np.tensordot(a, blocks.basis, axes=1)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A, T in cases:
            rep = derivation_seminorm(T, A, Mn, CFG, compute_upper=False)
            assert rep.value <= 1e-12 * max(1.0, op_norm(T))
            assert rep.details["polar_cap_hits"] == 0
        rep = derivation_seminorm(np.zeros((n, n)), diagonal_algebra(n), Mn, CFG)
        assert rep.value == 0.0 and rep.converged


def test_polar_cap_hits_count_phases_stopped_at_the_cap(monkeypatch):
    rng = np.random.default_rng(32)
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    D4, M4 = diagonal_algebra(4), full_matrix_algebra(4)
    model = commutant_model(D4, M4, CFG)
    rep = derivation_seminorm(T, D4, M4, CFG, model, compute_upper=False)
    assert rep.details["polar_cap_hits"] == 0
    phases = []
    real = seminorms._polar_phase_batch

    def counted(*args):
        out = real(*args)
        phases.append(out[3])
        return out

    # with a cap of one step the one phase of a call stops there
    monkeypatch.setattr(seminorms, "_MAX_ITERS", 1)
    monkeypatch.setattr(seminorms, "_polar_phase_batch", counted)
    rep = derivation_seminorm(T, D4, M4, CFG, model, compute_upper=False)
    assert phases == [True]
    assert rep.details["polar_cap_hits"] == 1


def _no_newton(Tt, st, Ub, svd, damp=1.0):
    """A _newton_steps stand-in whose every step is invalid."""
    R = len(svd[1])
    return Ub.copy(), np.zeros(R, dtype=bool), np.zeros(R)


def _expi(H, t):
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * t * vals)) @ vecs.conj().T


def test_ascent_derivatives_match_central_differences():
    # g and H of t -> ||F(U exp(i t X))|| at random block unitaries U, with
    # X each direction D_k and random pairs D_k + D_l: the first and second
    # central differences of the exact norm
    rng = np.random.default_rng(36)
    n, t = 5, 3e-4
    algebras = _sweep_algebras(n, rng)
    for kind in ("scalars", "masa", "s2", "s3"):
        st = commutant_model(algebras[kind], full_matrix_algebra(n), CFG).structure
        D = st.direction_matrices
        assert len(D) == st.algebra_dim - 1
        Tt = random_matrix(rng, n)
        G = np.stack([random_matrix(rng, n) for _ in range(3)])
        Ub = st.polar(G)
        g, H = seminorms._ascent_derivatives(Tt, D, Ub, np.linalg.svd(Ub @ Tt - Tt @ Ub))
        for r, U in enumerate(Ub):
            g_tol = 1e-6 * max(1.0, np.abs(g[r]).max())
            h_tol = 1e-6 * max(1.0, np.abs(H[r]).max())
            pairs = [(k, k) for k in range(len(D))]
            pairs += [tuple(rng.choice(len(D), 2, replace=False)) for _ in range(6)]
            for k, l in pairs:
                X = D[k] if k == l else D[k] + D[l]
                moved = (U @ _expi(X, s) for s in (t, 0.0, -t))
                fp, f0, fm = (op_norm(V @ Tt - Tt @ V) for V in moved)
                slope = g[r, k] if k == l else g[r, k] + g[r, l]
                curve = H[r, k, k] if k == l else H[r, k, k] + 2.0 * H[r, k, l] + H[r, l, l]
                assert abs((fp - fm) / (2.0 * t) - slope) <= g_tol, (kind, k, l)
                assert abs((fp - 2.0 * f0 + fm) / t**2 - curve) <= h_tol, (kind, k, l)


def _polar_only_phase_batch(Tt, st, Ub):
    """The polar phase without Newton steps: power-tracked polar steps on
    every restart until all of them stall."""
    R = len(Ub)
    UU, sv, Vh = np.linalg.svd(Ub @ Tt - Tt @ Ub)
    sigma, w, u = sv[:, 0], UU[:, :, 0], Vh[:, 0, :].conj()
    stall = np.zeros(R, dtype=int)
    iters = 0
    while iters < seminorms._MAX_ITERS and (stall < 2).any():
        b = np.einsum("ij,rj->ri", Tt, u)
        c = np.einsum("ji,rj->ri", Tt.conj(), w)
        X = b[:, :, None] * w.conj()[:, None, :] - u[:, :, None] * c.conj()[:, None, :]
        Ub_new = st.polar(X)
        sig_new, w_new, u_new = seminorms._power_steps(Ub_new @ Tt - Tt @ Ub_new, w)
        iters += 1
        gained = sig_new > sigma + 1e-13 * np.maximum(1.0, sigma)
        keep = sig_new >= sigma
        stall[gained] = 0
        stall[~gained] += 1
        Ub[keep] = Ub_new[keep]
        sigma = np.where(keep, sig_new, sigma)
        moved = keep & (sig_new > 0)
        w[moved] = w_new[moved]
        u[moved] = u_new[moved]
    norms = np.linalg.svd(Ub @ Tt - Tt @ Ub, compute_uv=False)[:, 0]
    return norms, Ub, iters, bool((stall < 2).any())


def _restart_states(model, T, cfg):
    """T in the adapted basis and derivation_seminorm's seeded (R, n, n) restarts."""
    W = model.structure.unitary
    return W.conj().T @ T @ W, seminorms._restarts(model, cfg)


def test_value_is_the_best_restart_of_the_one_ascent(monkeypatch):
    # the report is the best of the restarts _polar_phase_batch returns, with
    # every Newton step valid or every one failing; a trivial commutant runs
    # no ascent at all
    rng = np.random.default_rng(34)
    D4, M4 = diagonal_algebra(4), full_matrix_algebra(4)
    model = commutant_model(D4, M4, CFG)
    st = model.structure
    phases = []
    real = seminorms._polar_phase_batch

    def counted(*args):
        phases.append(1)
        return real(*args)

    for forced in (False, True):
        for _ in range(4):
            T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            with monkeypatch.context() as m:
                if forced:
                    m.setattr(seminorms, "_newton_steps", _no_newton)
                Tt, Ub = _restart_states(model, T, CFG)
                norms = real(Tt, st, Ub)[0]
                rep = derivation_seminorm(T, D4, M4, CFG, model, compute_upper=False)
            assert rep.value == norms.max()
            assert abs(op_norm(rep.witness @ T - T @ rep.witness) - rep.value) < 1e-10
            assert 1 <= rep.details["restart_consensus"] <= CFG.opt_restarts
    monkeypatch.setattr(seminorms, "_polar_phase_batch", counted)
    rep = derivation_seminorm(T, full_matrix_algebra(4), M4, CFG, compute_upper=False)
    assert not phases and rep.value == 0.0


def test_newton_finish_matches_the_polar_only_phase(monkeypatch):
    # every restart ends at least where today's polar phase ends it, the
    # consensus does not fall, and with every Newton step failing the
    # polar fallback still reaches the reference value
    rng = np.random.default_rng(37)
    for n in (3, 4, 5, 6):
        Mn = full_matrix_algebra(n)
        for kind, A in _sweep_algebras(n, rng).items():
            if kind == "full":
                continue
            model = commutant_model(A, Mn, CFG)
            st = model.structure
            for _ in range(3):
                T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                scale = max(1.0, op_norm(T))
                Tt, Ub = _restart_states(model, T, CFG)
                ref = _polar_only_phase_batch(Tt, st, Ub.copy())[0]
                new, _, _, capped = seminorms._polar_phase_batch(Tt, st, Ub.copy())
                assert (new >= ref - 1e-12 * scale).all() and not capped, (kind, n)
                with monkeypatch.context() as m:
                    m.setattr(seminorms, "_newton_steps", _no_newton)
                    fallback = seminorms._polar_phase_batch(Tt, st, Ub.copy())[0]
                # a row stops after two steps under the 1e-13 stall tolerance,
                # where the reference steps it on while another row gains
                assert fallback.max() >= ref.max() - 1e-9 * scale, (kind, n)
                got = derivation_seminorm(T, A, Mn, CFG, model, compute_upper=False)
                with monkeypatch.context() as m:
                    m.setattr(seminorms, "_polar_phase_batch", _polar_only_phase_batch)
                    want = derivation_seminorm(T, A, Mn, CFG, model, compute_upper=False)
                votes = got.details["restart_consensus"], want.details["restart_consensus"]
                assert votes[0] >= votes[1], (kind, n)


def test_newton_rounds_count_toward_the_cap(monkeypatch):
    # Newton steps from the second round on; a round of Newton steps counts
    # in the iterations and toward _MAX_ITERS like a polar round
    rng = np.random.default_rng(39)
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    D4, M4 = diagonal_algebra(4), full_matrix_algebra(4)
    model = commutant_model(D4, M4, CFG)
    rounds, newton = [], []
    real_phase, real_newton = seminorms._polar_phase_batch, seminorms._newton_steps

    def phase(*args):
        out = real_phase(*args)
        rounds.append(out[2])
        return out

    def steps(*args):
        newton.append(1)
        return real_newton(*args)

    monkeypatch.setattr(seminorms, "_polar_phase_batch", phase)
    monkeypatch.setattr(seminorms, "_newton_steps", steps)
    monkeypatch.setattr(seminorms, "_NEWTON_FROM", np.inf)
    rep = derivation_seminorm(T, D4, M4, CFG, model, compute_upper=False)
    assert rounds[0] >= 3 and newton and rep.iterations >= sum(rounds)
    assert rep.details["polar_cap_hits"] == 0
    rounds.clear()
    monkeypatch.setattr(seminorms, "_MAX_ITERS", 3)
    rep = derivation_seminorm(T, D4, M4, CFG, model, compute_upper=False)
    assert max(rounds) == 3 and rep.details["polar_cap_hits"] >= 1


def _logged_ascent(monkeypatch, Tt, st, Ub, newton=None):
    """Run _polar_phase_batch and log its step calls in order.

    Each _polar_steps call logs ("Q", rows), each _power_steps call
    ("P", rows) and each _newton_steps call ("N", rows); newton, if given,
    stands in for the Newton steps.  Returns (rounds, events).
    """
    events = []

    def logged(tag, real, rows_of):
        def call(*args):
            events.append((tag, len(rows_of(args))))
            return real(*args)

        return call

    with monkeypatch.context() as m:
        m.setattr(seminorms, "_polar_steps", logged("Q", seminorms._polar_steps, lambda a: a[2]))
        m.setattr(seminorms, "_power_steps", logged("P", seminorms._power_steps, lambda a: a[1]))
        newton = newton or seminorms._newton_steps
        m.setattr(seminorms, "_newton_steps", logged("N", newton, lambda a: a[3][1]))
        rounds = seminorms._polar_phase_batch(Tt, st, Ub)[2]
    return rounds, events


def _done_newton(Tt, st, Ub, svd, damp=1.0):
    """A _newton_steps stand-in whose every step is valid and predicts no gain."""
    R = len(svd[1])
    return Ub.copy(), np.ones(R, dtype=bool), np.zeros(R)


def test_ascent_runs_polar_then_newton_rounds_in_lockstep(monkeypatch):
    # every restart takes polar rounds until it switches, and only once all
    # have switched do the Newton rounds start, each one stepping every
    # switched restart still running in one _newton_steps call; the
    # restarts switch after different numbers of polar rounds, so an
    # ascent that mixed the two phases in a round would split those calls
    rng = np.random.default_rng(41)
    for n, kind in ((4, "masa"), (4, "s2"), (5, "scalars"), (5, "s3")):
        model = commutant_model(_sweep_algebras(n, rng)[kind], full_matrix_algebra(n), CFG)
        st = model.structure
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Tt, Ub = _restart_states(model, T, CFG)
        _, events = _logged_ascent(monkeypatch, Tt, st, Ub.copy())
        first = [e[0] for e in events].index("N")
        assert events[first] == ("N", CFG.opt_restarts), (n, kind)
        assert all(e[0] != "P" for e in events[first:]), (n, kind)
        # a polar step gaining under 1e-13 also gains under _NEWTON_FROM, so
        # every restart switches before it can stall in the polar rounds
        polar = [rows for tag, rows in events if tag == "P"]
        assert polar[0] == CFG.opt_restarts and len(set(polar)) > 2, (n, kind)
        # with every Newton step done at once, the Newton rounds are one call
        rounds, events = _logged_ascent(monkeypatch, Tt, st, Ub.copy(), _done_newton)
        assert [e for e in events if e[0] != "P"][-1:] == [("N", CFG.opt_restarts)], (n, kind)
        assert [e[0] for e in events].count("N") == 1
        assert rounds == len(polar) + 1, (n, kind)


def _same_report(a, b):
    return (
        (a.value, a.lower_bound, a.upper_bound, a.iterations, a.converged, a.details)
        == (b.value, b.lower_bound, b.upper_bound, b.iterations, b.converged, b.details)
        and np.array_equal(a.witness, b.witness)
    )


def test_restarts_drawn_once_per_model_leak_no_state():
    # the ascent updates its restarts in place, so each call must start from
    # the model's seeded draw: on one model, two T in either order and each
    # one twice give the reports of a freshly built model
    rng = np.random.default_rng(42)
    M4 = full_matrix_algebra(4)
    for A in (diagonal_algebra(4), _sweep_algebras(4, rng)["s2"]):
        Ts = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
        fresh = [
            derivation_seminorm(T, A, M4, CFG, commutant_model(A, M4, CFG), compute_upper=False)
            for T in Ts
        ]
        for order in ((0, 1, 1, 0), (1, 0, 0, 1)):
            model = commutant_model(A, M4, CFG)
            for k in order:
                rep = derivation_seminorm(Ts[k], A, M4, CFG, model, compute_upper=False)
                assert _same_report(rep, fresh[k]), (order, k)
            assert list(model.restarts) == [(CFG.rng_seed, CFG.opt_restarts)]


def test_barrier_factorizes_each_accepted_point_once(monkeypatch):
    # each barrier point is one record of its matrix, log-det and factors,
    # made once, so no Cholesky factorization is repeated on the same matrix
    seen = []
    real = np.linalg.cholesky

    def counted(F):
        seen.append(np.asarray(F).tobytes())
        return real(F)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    rng = np.random.default_rng(33)
    for A in (scalar_algebra(3), diagonal_algebra(4)):
        n = A.ambient_dim
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        seen.clear()
        rep = dist_opnorm(T, A.space, CFG)
        assert rep.converged and rep.iterations > 0
        assert len(seen) > rep.iterations
        assert len(set(seen)) == len(seen)


def test_final_centering_step_off_the_cone_ends_it(monkeypatch):
    # make the Cholesky test fail on the last point of a first run, a full
    # final-centering step: the centering ends on the point before, whose
    # x is the witness, and the failed point's inverse gives no certificate
    real = np.linalg.cholesky
    seen = []

    def recorded(F):
        seen.append(np.array(F))
        if len(seen) == fail_at:
            raise np.linalg.LinAlgError("off the cone")
        return real(F)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    n = 5
    A = diagonal_algebra(n)
    T = random_matrix(np.random.default_rng(1), n)
    fail_at = 0
    first = dist_opnorm(T, A.space, CFG)
    fail_at, first_last = len(seen), seen[-1]
    seen.clear()
    rep = dist_opnorm(T, A.space, CFG)

    def bound_at(F):
        P = np.linalg.inv(F)
        return seminorms._bound_from_Z(T, A.space, ((P + P.conj().T) / 2.0)[:n, n:])

    # the first run's certificate came from its last point, and the second
    # run took the same path up to the failed step
    assert first.converged and first.lower_bound == bound_at(first_last)
    assert len(seen) == fail_at and rep.iterations == first.iterations
    np.testing.assert_allclose(T - rep.witness, seen[-2][:n, n:], rtol=0, atol=1e-14)
    assert rep.lower_bound != bound_at(seen[-1])
    assert 0.0 < rep.lower_bound <= rep.value
    assert A.space.residual(rep.witness) < 1e-8
    assert abs(op_norm(T - rep.witness) - rep.value) < 1e-12


def test_barrier_stage_stop_matches_the_four_step_path(monkeypatch):
    # with _CENTRED = -inf no stage ends on its Newton decrement, so each
    # takes up to four steps: the barrier path without the decrement test,
    # step for step
    rng = np.random.default_rng(38)
    steps = {"new": 0, "full": 0}
    for n in range(2, 9):
        algebras = [scalar_algebra(n), diagonal_algebra(n)]
        if n >= 3:
            algebras.append(block_algebra(((2, 1), (1, n - 2)), haar_unitary(rng, n)))
        for A in algebras:
            T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            new = dist_opnorm(T, A.space, CFG)
            with monkeypatch.context() as m:
                m.setattr(seminorms, "_CENTRED", -np.inf)
                full = dist_opnorm(T, A.space, CFG)
            assert new.converged and full.converged
            assert abs(new.value - full.value) <= 1e-12 * max(1.0, op_norm(T))
            steps["new"] += new.iterations
            steps["full"] += full.iterations
    assert steps["new"] < steps["full"]


def test_non_selfadjoint_algebra_reports_contraction_sup():
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    A = algebra_from_space(orthonormalize([np.eye(2), E12], CFG, 2))
    assert not A.selfadjoint
    M2 = full_matrix_algebra(2)
    T = np.diag([1.0, 0.0]).astype(complex)
    rep = derivation_seminorm(T, A, M2, CFG)
    # adjoints of the generators fill the ambient, so the unitary part vanishes
    assert rep.value < 1e-12
    assert abs(rep.details["contraction_sup"] - 1.0) < 1e-6


def _contraction_sup_one_trial_at_a_time(T, model, cfg):
    """Reference ratio ascent: each trial alone, every SVD computed afresh."""
    C = model.span_commutant
    Bs = C.basis

    def ratio(W):
        return op_norm(W @ T - T @ W) / op_norm(W)

    best = 0.0
    for trial in range(8):
        W = C.space.random_element(cfg.rng(207, trial))
        W, val, eta = W / op_norm(W), ratio(W), 0.5
        for _ in range(60):
            if eta < 1e-6:
                break
            UU, _, Vh = np.linalg.svd(W @ T - T @ W)
            w, u = UU[:, 0], Vh[0].conj()
            Ua, _, Vha = np.linalg.svd(W)
            # d r = Re tr(K dW) at ||W|| = 1, and the step is sum conj(g_k) B_k
            K = np.outer(T @ u, w.conj()) - np.outer(u, w.conj() @ T)
            K -= val * np.outer(Vha[0].conj(), Ua[:, 0].conj())
            g = np.einsum("kab,ba->k", Bs, K)
            Wc = W + eta * np.tensordot(np.conj(g), Bs, axes=1)
            vc = ratio(Wc)
            if vc > val + max(1e-4 * eta * float(np.sum(np.abs(g) ** 2)), 1e-12):
                W, val, eta = Wc / op_norm(Wc), vc, min(eta * 1.5, 2.0)
            else:
                eta /= 2.0
        best = max(best, val)
    return best


@pytest.mark.parametrize("n", [3, 4, 5])
def test_contraction_sup_matches_one_trial_at_a_time(n):
    rng = np.random.default_rng(40 + n)
    J = np.diag(np.ones(n - 1), 1).astype(complex)
    M = full_matrix_algebra(n)
    for gen in (J, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))):
        model = commutant_model(generate_algebra([gen], CFG), M, CFG)
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = seminorms._contraction_sup(T, model, CFG)
        assert abs(got - _contraction_sup_one_trial_at_a_time(T, model, CFG)) < 1e-10 * op_norm(T)


def test_contraction_sup_matches_the_two_by_two_closed_form():
    # for A = span{I, X} in M_2, A' = A and W = a I + b X gives
    # ||WT - TW|| = |b| ||[X, T]|| and ||W|| >= |b| dist(X, C I), so the
    # sup over the unit ball is ||[X, T]|| / dist(X, C I)
    rng = np.random.default_rng(60)
    M2, scalars = full_matrix_algebra(2), scalar_algebra(2)
    for _ in range(20):
        X, T = random_matrix(rng, 2), random_matrix(rng, 2)
        model = commutant_model(algebra_from_space(orthonormalize([np.eye(2), X], CFG, 2)), M2, CFG)
        want = op_norm(X @ T - T @ X) / dist_opnorm(X, scalars.space, CFG).value
        got = seminorms._contraction_sup(T, model, CFG)
        assert abs(got - want) <= 1e-9 * want


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_contraction_sup_is_bounded_by_the_bicommutant_distance(n):
    # every W in the unit ball of A' commutes with A'', so
    # ||WT - TW|| <= 2 dist(T, A''), and the sup vanishes on A''
    rng = np.random.default_rng(70 + n)
    M = full_matrix_algebra(n)
    J = np.diag(np.ones(n - 1), 1).astype(complex)
    for gen in (random_matrix(rng, n), J):
        model = commutant_model(generate_algebra([gen], CFG), M, CFG)
        bicomm = model.bicommutant.space
        T, S = random_matrix(rng, n), bicomm.random_element(rng)
        sup = seminorms._contraction_sup(T, model, CFG)
        assert sup <= 2.0 * dist_opnorm(T, bicomm, CFG).value + 1e-6 * max(1.0, op_norm(T))
        assert seminorms._contraction_sup(S, model, CFG) < 1e-12 * max(1.0, op_norm(S))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_reports_depend_on_the_span_not_the_basis(n):
    rng = np.random.default_rng(50 + n)
    M = full_matrix_algebra(n)
    T = random_matrix(rng, n)
    polys = [generate_algebra([random_matrix(rng, n)], CFG) for _ in range(5)]
    blocks = block_algebra(((2, 1), (1, n - 2)), haar_unitary(rng, n))
    for A in polys + [blocks]:
        # a Haar mix of the orthonormal basis spans the same algebra
        mixed = np.tensordot(haar_unitary(rng, A.dim), A.basis, axes=1)
        rebased = MatrixAlgebra(OperatorSubspace(n, mixed), A.unital, A.selfadjoint)
        want, got = (derivation_seminorm(T, B, M, CFG, compute_upper=False) for B in (A, rebased))
        assert abs(got.value - want.value) <= 1e-12 * max(1.0, want.value)
        if not A.selfadjoint:
            sup = want.details["contraction_sup"]
            assert abs(got.details["contraction_sup"] - sup) <= 1e-12 * max(1.0, sup)


def test_model_requires_containment():
    with pytest.raises(InvalidInputError):
        commutant_model(full_matrix_algebra(2), diagonal_algebra(2), CFG)


def test_model_structure():
    D3 = diagonal_algebra(3)
    M3 = full_matrix_algebra(3)
    model = commutant_model(D3, M3, CFG)
    assert model.star_commutant is model.span_commutant
    assert subspace_contains(model.bicommutant.space, D3.space, CFG)
    assert not model.trivial
    assert commutant_model(full_matrix_algebra(3), M3, CFG).trivial


@pytest.mark.parametrize("call", ["seminorm", "sampling"])
def test_model_built_for_another_algebra_is_rejected(call):
    T = np.random.default_rng(1).standard_normal((3, 3))
    D3, M3 = diagonal_algebra(3), full_matrix_algebra(3)
    two_blocks = block_algebra(((2, 1), (1, 1)))

    def run(A, ambient, model):
        if call == "seminorm":
            return derivation_seminorm(T, A, ambient, CFG, model, compute_upper=False).value
        return sampling_seminorm_bound(T, A, ambient, 50, CFG, model)

    # a model of equal spans, built from other objects, is accepted as is
    want = run(D3, M3, None)
    assert run(D3, M3, commutant_model(diagonal_algebra(3), full_matrix_algebra(3), CFG)) == want
    # the scalars' model would give the scalar seminorm of T
    with pytest.raises(InvalidInputError):
        run(D3, M3, commutant_model(scalar_algebra(3), M3, CFG))
    with pytest.raises(InvalidInputError):
        run(D3, two_blocks, commutant_model(D3, M3, CFG))


# ---------------------------------------------------------------------------
# normality constants and composition


def test_kn_scalars_in_m3_is_half():
    est = kn_lower_estimate(scalar_algebra(3), full_matrix_algebra(3), 20, CFG)
    assert 0.49 <= est <= 0.51


def test_kn_masa_at_most_one():
    est = kn_lower_estimate(diagonal_algebra(4), full_matrix_algebra(4), 25, CFG)
    assert 0.0 < est <= 1.0 + 1e-4


def test_kn_detects_non_normal():
    # span{I, E12} is normal (A' = A), but C*(A)' is the scalars, so the
    # seminorm over its unitaries is 0 where the distance is not
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    A = algebra_from_space(orthonormalize([np.eye(2), E12], CFG, 2))
    est = kn_lower_estimate(A, full_matrix_algebra(2), 10, CFG)
    assert est == float("inf")


def test_composition_inequality_through_masa():
    report = composition_inequality_check(
        scalar_algebra(3), diagonal_algebra(3), full_matrix_algebra(3), 10, CFG
    )
    assert report["passed"]
    assert report["violations"] == 0
    assert abs(report["bound_coefficient"] - 4.0) < 1e-12
    assert report["max_ratio"] <= 4.0


def test_composition_requires_nesting():
    with pytest.raises(InvalidInputError):
        composition_inequality_check(
            diagonal_algebra(3), scalar_algebra(3), full_matrix_algebra(3), 2, CFG
        )


def test_newton_steps_run_up_to_the_cap_and_not_above(monkeypatch):
    # the cap is the one size rule: the scalars' commutant M_8 has p = 63
    # directions and gets Newton steps, M_9 has p = 80 and gets none
    rng = np.random.default_rng(36)
    calls = []
    real = seminorms._newton_steps

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(seminorms, "_newton_steps", counted)
    for n, stepped in ((8, True), (9, False)):
        Sn, Mn = scalar_algebra(n), full_matrix_algebra(n)
        model = commutant_model(Sn, Mn, CFG)
        assert (model.structure.algebra_dim - 1 <= seminorms._NEWTON_MAX_DIRECTIONS) == stepped
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        calls.clear()
        rep = derivation_seminorm(T, Sn, Mn, CFG, model, compute_upper=False)
        assert bool(calls) == stepped, n
        dd = dist_opnorm(T, Sn.space, CFG)
        assert abs(rep.value - 2.0 * dd.value) <= 1e-5 * (1.0 + op_norm(T)), n
