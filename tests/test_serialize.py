"""Round-trip and validation tests for the JSON interchange formats."""

import json

import numpy as np
import pytest

from commutant.algebra import diagonal_algebra, full_matrix_algebra, generate_algebra
from commutant.blocks import wedderburn
from commutant.config import DEFAULT_CONFIG as CFG
from commutant.config import InvalidInputError, ResourceLimitError
from commutant.serialize import (
    algebra_from_json,
    algebra_to_json,
    canonical_dumps,
    jsonable,
    matrices_from_json,
    matrix_from_json,
    matrix_to_json,
    structure_to_json,
)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestMatrixFormat:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5):
            M = random_complex(rng, n)
            text = json.dumps(matrix_to_json(M))
            back = matrix_from_json(json.loads(text))
            assert np.array_equal(back, M)

    def test_rejects_ragged_rows(self):
        obj = {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}
        with pytest.raises(InvalidInputError):
            matrix_from_json(obj)

    def test_rejects_bad_cells(self):
        base = {"dim": 1, "entries": [[[1.0]]]}
        with pytest.raises(InvalidInputError):
            matrix_from_json(base)
        with pytest.raises(InvalidInputError):
            matrix_from_json({"dim": 1, "entries": [[[1.0, "x"]]]})
        with pytest.raises(InvalidInputError):
            matrix_from_json({"dim": 1, "entries": [[[1.0, True]]]})

    def test_rejects_bad_dim(self):
        with pytest.raises(InvalidInputError):
            matrix_from_json({"dim": 0, "entries": []})
        with pytest.raises(InvalidInputError):
            matrix_from_json({"dim": True, "entries": [[[1.0, 0.0]]]})
        with pytest.raises(InvalidInputError):
            matrix_from_json([1, 2, 3])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            matrix_from_json({"dim": 1, "entries": [[[float("inf"), 0.0]]]})

    def test_list_reader_requires_matching_dims(self):
        a = matrix_to_json(np.eye(2))
        b = matrix_to_json(np.eye(3))
        with pytest.raises(InvalidInputError):
            matrices_from_json([a, b])
        mats = matrices_from_json([a, a])
        assert len(mats) == 2 and mats[0].shape == (2, 2)


class TestAlgebraFormat:
    def test_round_trip_preserves_basis(self):
        A = diagonal_algebra(3)
        obj = json.loads(json.dumps(algebra_to_json(A)))
        back = algebra_from_json(obj, CFG)
        assert back.ambient_dim == 3 and back.dim == 3
        for X, Y in zip(back.basis, A.basis):
            assert np.array_equal(X, Y)
        assert back.unital and back.selfadjoint

    def test_non_orthonormal_basis_is_accepted(self):
        obj = {
            "ambient_dim": 2,
            "unital": True,
            "selfadjoint": True,
            "basis": [matrix_to_json(2.0 * np.eye(2)), matrix_to_json(np.diag([1.0, -1.0]))],
        }
        A = algebra_from_json(obj, CFG)
        assert A.dim == 2

    # a wrong flag, and flags that are not JSON booleans
    @pytest.mark.parametrize(
        "key, value",
        [("selfadjoint", False)]
        + [
            (key, value)
            for key in ("unital", "selfadjoint")
            for value in ("false", "no", 0.5, [1], {"a": 1}, 1, None)
        ],
    )
    def test_flag_mismatch_rejected(self, key, value):
        good = algebra_to_json(full_matrix_algebra(2))
        with pytest.raises(InvalidInputError):
            algebra_from_json(dict(good, **{key: value}), CFG)

    def test_ambient_dim_beyond_cap_refused_before_parsing(self):
        # the basis is not even a matrix: the cap is checked first
        obj = {"ambient_dim": 65, "unital": True, "selfadjoint": True, "basis": ["x"]}
        with pytest.raises(ResourceLimitError):
            algebra_from_json(obj, CFG)

    def test_span_not_closed_under_products_rejected(self):
        # span{E12, E21} is selfadjoint, but E12 E21 = E11 lies outside it
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        obj = {
            "ambient_dim": 2,
            "unital": False,
            "selfadjoint": True,
            "basis": [matrix_to_json(E12), matrix_to_json(E12.T)],
        }
        with pytest.raises(InvalidInputError, match="algebra"):
            algebra_from_json(obj, CFG)

    def test_dimension_mismatch_rejected(self):
        obj = {
            "ambient_dim": 3,
            "unital": True,
            "selfadjoint": True,
            "basis": [matrix_to_json(np.eye(2))],
        }
        with pytest.raises(InvalidInputError):
            algebra_from_json(obj, CFG)


class TestStructureFormat:
    def test_writes_blocks_and_unitary(self):
        E12 = np.zeros((2, 2), dtype=np.complex128)
        E12[0, 1] = 1.0
        A = generate_algebra([E12 + E12.conj().T], CFG, star=True)
        st = wedderburn(A, CFG)
        obj = json.loads(json.dumps(structure_to_json(st)))
        assert sorted(obj) == ["blocks", "unitary"]
        assert obj["blocks"] == [{"s": s, "m": m} for s, m in st.blocks]
        assert np.array_equal(matrix_from_json(obj["unitary"]), st.unitary)


class TestCanonicalDumps:
    def test_key_order_fixed(self):
        a = canonical_dumps({"b": 1, "a": 2})
        b = canonical_dumps({"a": 2, "b": 1})
        assert a == b == '{"a":2,"b":1}'

    def test_numpy_scalars_coerced(self):
        text = canonical_dumps(
            {"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}
        )
        assert text == '{"b":true,"f":0.5,"i":3}'

    def test_infinity_encoded_as_string(self):
        assert canonical_dumps({"kn": float("inf")}) == '{"kn":"infinity"}'

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            canonical_dumps({"x": float("nan")})

    def test_arrays_become_matrix_json(self):
        obj = jsonable(np.eye(1, dtype=np.complex128))
        assert obj == {"dim": 1, "entries": [[[1.0, 0.0]]]}
