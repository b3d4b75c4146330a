"""Gallery constructions against hand-built and brute-force oracles."""

import subprocess
import sys

import numpy as np
import pytest

from commutant import gallery
from commutant.algebra import (
    diagonal_algebra,
    full_matrix_algebra,
    generate_algebra,
    is_normal,
    relative_commutant,
)
from commutant.config import DEFAULT_CONFIG as CFG
from commutant.config import InvalidInputError, NumericConfig
from commutant.gallery import (
    _ampliation,
    commutative_normality_scan,
    corner_traceless_algebra,
    corner_traceless_report,
    paired_copies_report,
    polynomial_normality_sweep,
    ramp_shift_report,
    ramp_weighted_shift,
    run_gallery,
    selfcommutant_report,
    selfcommutant_triangular,
    structure_stability_report,
)
from commutant.linalg import commutator, op_norm, orthonormalize, subspace_distance


def formula_shift_oracle(n: int, N: int) -> np.ndarray:
    """Ramp shift assembled from shift powers, the long way around.

    Tail projection of order n+1 plus the spectral steps k/n at positions
    1..n, applied to the truncated shift.  Independent of the builder's
    direct diagonal construction.
    """
    S = np.diag(np.ones(N - 1), -1).astype(np.complex128)
    Sh = S.conj().T
    acc = np.linalg.matrix_power(S, n + 1) @ np.linalg.matrix_power(Sh, n + 1)
    edge = np.eye(N) - S @ Sh
    for k in range(1, n + 1):
        acc += (k / n) * np.linalg.matrix_power(S, k) @ edge @ np.linalg.matrix_power(Sh, k)
    return acc @ S


class TestTriangularSelfcommutant:
    def test_dimensions_and_flags(self):
        for variant in (1, 2):
            A = selfcommutant_triangular(variant)
            assert A.dim == 3
            assert A.unital and not A.selfadjoint

    def test_equals_own_commutant(self):
        M3 = full_matrix_algebra(3)
        for variant in (1, 2):
            A = selfcommutant_triangular(variant)
            C = relative_commutant(A, M3, CFG)
            assert subspace_distance(C.space, A.space) < 1e-9

    def test_commutative(self):
        for variant in (1, 2):
            A = selfcommutant_triangular(variant)
            for X in A.basis:
                for Y in A.basis:
                    assert op_norm(commutator(X, Y)) < 1e-12

    def test_report(self):
        rep = selfcommutant_report(CFG)
        assert rep["passed"]
        assert all(item["normal"] for item in rep["items"])

    def test_bad_variant(self):
        with pytest.raises(InvalidInputError):
            selfcommutant_triangular(3)


class TestCornerTraceless:
    def test_shape(self):
        A = corner_traceless_algebra()
        assert A.dim == 4 and A.unital and not A.selfadjoint
        for X in A.basis:
            for Y in A.basis:
                assert op_norm(commutator(X, Y)) < 1e-12

    def test_report_dims_and_normality(self):
        rep = corner_traceless_report(CFG)
        assert rep["passed"]
        assert rep["dim"] == 4 and rep["bicommutant_dim"] == 5
        assert not rep["normal"]
        assert rep["witness_residual"] > 0.1

    def test_bicommutant_is_untraced_form(self):
        # same corner form with the trace restriction dropped
        corner = lambda A: np.block(
            [[np.zeros((2, 2)), A], [np.zeros((2, 2)), np.zeros((2, 2))]]
        ).astype(np.complex128)
        units = [np.zeros((2, 2)) for _ in range(4)]
        for idx, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            units[idx] = np.zeros((2, 2))
            units[idx][i, j] = 1.0
        expected = orthonormalize(
            [np.eye(4, dtype=np.complex128)] + [corner(u) for u in units],
            CFG,
        )
        from commutant.algebra import double_commutant

        D = double_commutant(corner_traceless_algebra(), full_matrix_algebra(4), CFG)
        assert subspace_distance(D.space, expected) < 1e-9


class TestRampShift:
    def test_matches_formula_oracle(self):
        for n, N in ((1, 8), (2, 12), (3, 16), (10, 200)):
            T = ramp_weighted_shift(n, N)
            assert np.abs(T - formula_shift_oracle(n, N)).max() < 1e-14

    def test_n1_is_plain_truncated_shift(self):
        T = ramp_weighted_shift(1, 8)
        assert np.abs(T - np.diag(np.ones(7), -1)).max() == 0.0

    def test_norm_at_most_two(self):
        for n in (1, 2, 5, 10):
            T = ramp_weighted_shift(n, 8 * n)
            assert op_norm(T) <= 2.0 + 1e-12

    def test_interior_commutator_exact_value(self):
        # diagonal commutator entries are (2j+1)/n^2 up the ramp, then zero
        for n in (2, 5, 10):
            rep = ramp_shift_report(n, 10 * n, cfg=CFG)
            expected = (2 * n - 1) / n**2
            assert abs(rep["interior_commutator_norm"] - expected) < 1e-12
            assert abs(rep["raw_commutator_norm"] - 1.0) < 1e-12

    def test_report_certifies_bound(self):
        rep = ramp_shift_report(10, 200, cfg=CFG)
        assert rep["passed"]
        assert rep["doubling_slack"] < 1e-12
        assert rep["interior_commutator_norm"] <= rep["bound"] + rep["doubling_slack"]

    def test_report_is_independent_of_blas_threads(self, package_env):
        outputs = []
        for threads in ("1", "2"):
            env = dict(package_env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "commutant.cli", "gallery",
                 "--items", "ramp-shift-commutator"],
                env=env, capture_output=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert b"ramp-shift-commutator" in outputs[0]

    def test_truncation_headroom_enforced(self):
        with pytest.raises(InvalidInputError):
            ramp_weighted_shift(10, 39)
        with pytest.raises(InvalidInputError):
            ramp_weighted_shift(0, 100)


class TestPairedCopies:
    def test_fixed_diagonal_generator(self):
        rep = paired_copies_report(np.diag([1.0, 2.0]), CFG)
        assert rep["passed"]
        assert rep["algebra_dim"] == 2
        assert rep["bicommutant_dim"] == 4
        assert rep["matches_paired_copies"] and rep["strict"]

    def test_degenerate_scalar_generator(self):
        # bicommutant still decouples into the two central summands
        rep = paired_copies_report(np.eye(2), CFG)
        assert rep["matches_paired_copies"]
        assert rep["bicommutant_dim"] == 2
        assert rep["distinct_eigenvalues"] == 1
        assert rep["passed"]

    def test_random_three_by_three(self):
        rng = CFG.rng(9001)
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = G + G.conj().T
        rep = paired_copies_report(a, CFG)
        assert rep["distinct_eigenvalues"] == 3
        assert rep["bicommutant_dim"] == 6
        assert rep["matches_paired_copies"] and rep["strict"] and rep["passed"]

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(InvalidInputError):
            paired_copies_report(np.array([[0.0, 1.0], [0.0, 0.0]]), CFG)

    def test_selfadjoint_check_uses_the_given_tolerance(self):
        a = np.array([[1.0, 1e-6], [0.0, 2.0]])
        rep = paired_copies_report(a, NumericConfig(rank_tol=1e-7, eq_tol=1e-5))
        assert rep["algebra_dim"] == 2
        with pytest.raises(InvalidInputError):
            paired_copies_report(a, CFG)


class TestNormalityScans:
    def test_small_ambients_all_normal(self):
        for n in (2, 3):
            rep = commutative_normality_scan(n, 25, CFG)
            assert rep["passed"]
            assert rep["normal"] == 25 and rep["non_normal"] == 0

    def test_four_by_four_injection(self):
        rep = commutative_normality_scan(4, 5, CFG, conjugates=3)
        assert rep["injected"] == 4
        assert rep["injected_non_normal"] == 4
        assert rep["passed"]

    def test_rejects_large_ambient(self):
        with pytest.raises(InvalidInputError):
            commutative_normality_scan(5, 1, CFG)

    def test_polynomial_sweep(self):
        rep = polynomial_normality_sweep((2, 3, 4), 10, CFG)
        assert rep["passed"]
        for row in rep["per_dim"]:
            assert row["normal"] == row["trials"]


class TestStructureStability:
    def test_diagonal_ampliation_hand_check(self):
        # 2x2 matrices over the diagonal algebra: the commutant in the full
        # 4x4 algebra is spanned by I (x) E11 and I (x) E22
        amp = _ampliation(diagonal_algebra(2), 2, CFG)
        assert amp.dim == 8
        C = relative_commutant(amp, full_matrix_algebra(4), CFG)
        expected = orthonormalize(
            [
                np.kron(np.eye(2), np.diag([1.0, 0.0])).astype(np.complex128),
                np.kron(np.eye(2), np.diag([0.0, 1.0])).astype(np.complex128),
            ],
            CFG,
        )
        assert C.dim == 2
        assert subspace_distance(C.space, expected) < 1e-9
        flag, _ = is_normal(amp, full_matrix_algebra(4), CFG)
        assert flag

    def test_triangular_summand_survives_direct_sum(self):
        # scalar+nilpotent algebra in the 2x2 block, full algebra in the 3x3
        E12 = np.zeros((2, 2), dtype=np.complex128)
        E12[0, 1] = 1.0
        A1 = generate_algebra([E12], CFG)
        flag1, _ = is_normal(A1, full_matrix_algebra(2), CFG)
        assert flag1

    def test_report_no_failures(self):
        rep = structure_stability_report(CFG, instances=10)
        assert rep["passed"] and rep["failures"] == 0
        kinds = {c["kind"] for c in rep["checks"]}
        assert kinds == {"direct-sum", "ampliation"}


class TestCatalog:
    def test_full_run_passes(self):
        rep = run_gallery(CFG)
        assert rep["passed"]
        assert [i["name"] for i in rep["items"]] == list(rep["catalog"])

    def test_subset_and_determinism(self):
        import json

        names = ["corner-traceless-4x4", "ramp-shift-commutator"]
        a = run_gallery(CFG, names=names)
        b = run_gallery(CFG, names=names)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert len(a["items"]) == 2

    def test_unknown_item_rejected(self, monkeypatch):
        with pytest.raises(InvalidInputError):
            run_gallery(CFG, names=["no-such-item"])
        # names are checked before any known item runs
        calls = []

        def stub(cfg):
            calls.append(cfg)
            return {"name": "stub", "passed": True}

        monkeypatch.setattr(gallery, "GALLERY", (("stub", stub),))
        with pytest.raises(InvalidInputError):
            run_gallery(CFG, names=["stub", "nope"])
        assert calls == []
        assert run_gallery(CFG, names=["stub"])["items"] == [{"name": "stub", "passed": True}]
