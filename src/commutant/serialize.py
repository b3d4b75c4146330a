"""JSON encodings for matrices, algebras, block structures, and reports.

The matrix format is the bit-exact interchange contract: complex entries
are stored row-major as [re, im] pairs of binary64 floats, so that a
serialize / parse round trip reproduces the array exactly.  All readers
validate shape strictly and reject ragged rows; the algebra reader also
refuses an ambient dimension above DIM_CAP and a basis whose span is not
closed under products.  Block structures and reports are written only;
nothing reads them back.  ``canonical_dumps`` fixes key order and
separators, making equal report dicts byte-identical on disk.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import MatrixAlgebra, algebra_from_space, verify_algebra
from .blocks import BlockStructure
from .config import DEFAULT_CONFIG, DIM_CAP, InvalidInputError, NumericConfig, ResourceLimitError
from .linalg import OperatorSubspace, as_matrix, op_norm, orthonormalize
from .seminorms import DistanceReport

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "matrices_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "structure_to_json",
    "report_to_json",
    "jsonable",
    "canonical_dumps",
]


def _require(cond: bool, message: str):
    if not cond:
        raise InvalidInputError(message)


def _number(x, what: str) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool), f"{what} must be a number")
    v = float(x)
    _require(math.isfinite(v), f"{what} must be finite")
    return v


# ---------------------------------------------------------------------------
# matrices


def matrix_to_json(M) -> dict:
    A = as_matrix(M)
    n = A.shape[0]
    entries = [
        [[float(A[i, j].real), float(A[i, j].imag)] for j in range(n)] for i in range(n)
    ]
    return {"dim": n, "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "matrix JSON must be an object")
    _require("dim" in obj and "entries" in obj, "matrix JSON needs dim and entries")
    n = obj["dim"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "dim must be a positive integer")
    rows = obj["entries"]
    _require(isinstance(rows, list) and len(rows) == n, f"entries must have {n} rows")
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == n, f"row {i} must have {n} cells")
        for j, cell in enumerate(row):
            _require(
                isinstance(cell, list) and len(cell) == 2,
                f"cell ({i},{j}) must be a [re, im] pair",
            )
            out[i, j] = complex(
                _number(cell[0], f"cell ({i},{j}) real part"),
                _number(cell[1], f"cell ({i},{j}) imaginary part"),
            )
    return out


def matrices_from_json(obj) -> list:
    _require(isinstance(obj, list) and obj, "expected a non-empty list of matrix JSON objects")
    mats = [matrix_from_json(item) for item in obj]
    dims = {M.shape[0] for M in mats}
    _require(len(dims) == 1, "matrices in one file must share their dimension")
    return mats


# ---------------------------------------------------------------------------
# algebras


def algebra_to_json(A: MatrixAlgebra) -> dict:
    return {
        "ambient_dim": int(A.ambient_dim),
        "unital": bool(A.unital),
        "selfadjoint": bool(A.selfadjoint),
        "basis": [matrix_to_json(B) for B in A.basis],
    }


def algebra_from_json(obj, cfg: NumericConfig = DEFAULT_CONFIG) -> MatrixAlgebra:
    """Read an algebra; its basis must span a subspace closed under products.

    The unital and selfadjoint flags must be JSON booleans that agree with
    the basis.  A span that a product of two basis elements leaves is an
    InvalidInputError, and a closure check too large to run is
    verify_algebra's ResourceLimitError.
    """
    _require(isinstance(obj, dict), "algebra JSON must be an object")
    for key in ("ambient_dim", "unital", "selfadjoint", "basis"):
        _require(key in obj, f"algebra JSON needs {key}")
    for flag in ("unital", "selfadjoint"):
        _require(isinstance(obj[flag], bool), f"{flag} must be true or false")
    n = obj["ambient_dim"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "ambient_dim must be a positive integer")
    if n > DIM_CAP:
        raise ResourceLimitError(f"ambient dimension {n} exceeds cap {DIM_CAP}")
    _require(isinstance(obj["basis"], list), "basis must be a list")
    mats = [matrix_from_json(m) for m in obj["basis"]]
    for M in mats:
        _require(M.shape[0] == n, "basis matrix dimension differs from ambient_dim")
    space = OperatorSubspace(n, mats)
    gram = np.einsum("aij,bij->ab", space.basis.conj(), space.basis)
    if space.dim and op_norm(gram - np.eye(space.dim)) > 1e-9:
        space = orthonormalize(mats, cfg, ambient_dim=n)
    A = algebra_from_space(space, cfg)
    _require(
        verify_algebra(A, cfg)["closure_defect"] <= cfg.eq_tol,
        "basis does not span an algebra: a product of two elements leaves the span",
    )
    _require(
        A.unital == obj["unital"],
        "stored unital flag disagrees with the basis",
    )
    _require(
        A.selfadjoint == obj["selfadjoint"],
        "stored selfadjoint flag disagrees with the basis",
    )
    return A


# ---------------------------------------------------------------------------
# block structures


def structure_to_json(st: BlockStructure) -> dict:
    return {
        "blocks": [{"s": int(s), "m": int(m)} for s, m in st.blocks],
        "unitary": matrix_to_json(st.unitary),
    }


# ---------------------------------------------------------------------------
# distance reports


def report_to_json(rep: DistanceReport) -> dict:
    return {
        "value": float(rep.value),
        "lower": float(rep.lower_bound),
        "upper": float(rep.upper_bound),
        "converged": bool(rep.converged),
        "witness": None if rep.witness is None else matrix_to_json(rep.witness),
        "iterations": int(rep.iterations),
    }


# ---------------------------------------------------------------------------
# canonical output


def jsonable(x):
    """Recursively coerce report payloads to plain JSON-safe Python values.

    Numpy scalars and arrays become Python numbers and nested lists;
    infinities become the strings "infinity" / "-infinity" so that strict
    JSON can carry them; NaN is rejected outright.
    """
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            raise InvalidInputError("refusing to serialize NaN")
        if math.isinf(v):
            return "infinity" if v > 0 else "-infinity"
        return v
    if isinstance(x, (complex, np.complexfloating)):
        z = complex(x)
        return [jsonable(z.real), jsonable(z.imag)]
    if isinstance(x, np.ndarray):
        return matrix_to_json(x) if x.ndim == 2 and x.shape[0] == x.shape[1] else jsonable(x.tolist())
    if x is None or isinstance(x, str):
        return x
    raise InvalidInputError(f"cannot serialize value of type {type(x).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, no NaN."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)
