"""Shared numeric configuration, error types, and seeding helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an argument fails validation (shape, finiteness, flags)."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size cap."""


class StructureError(RuntimeError):
    """Raised when data violates a structural assumption beyond tolerance."""


DIM_CAP = 64


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances and optimizer knobs shared by every numerical routine.

    rank_tol decides numerical rank (nullspaces, basis truncation) and
    eq_tol decides equality of subspaces and operators.  Both are relative
    to the scale of the data being compared.
    """

    rank_tol: float = 1e-9
    eq_tol: float = 1e-7
    opt_restarts: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.rank_tol <= self.eq_tol < 1.0):
            raise InvalidInputError(
                f"need 0 < rank_tol <= eq_tol < 1, got {self.rank_tol}, {self.eq_tol}"
            )
        if self.opt_restarts < 1:
            raise InvalidInputError("opt_restarts must be >= 1")
        if self.rng_seed < 0:
            raise InvalidInputError(f"rng_seed must be >= 0, got {self.rng_seed}")

    def rng(self, *key: int) -> np.random.Generator:
        """Deterministic generator for this config, optionally sub-keyed.

        Identical (seed, key) pairs give identical streams, so a loop that
        hands each item its own key gets the same numbers whether items run
        serially or in parallel.
        """
        return np.random.default_rng(np.random.SeedSequence((self.rng_seed,) + key))


DEFAULT_CONFIG = NumericConfig()
