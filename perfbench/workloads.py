"""The benchmark's workloads: seeded inputs, preparation, instances and checks.

A workload is a closed loop over rounds.  Every round holds the same
multiset of instance kinds and sizes; the seed decides the matrices (on
``seminorm-batch`` only their order, see ``SeminormBatch``) and the order
inside a round, so runs with different seeds do the same amount of work of
the same shape.  Inputs are plain numpy data drawn from
``numpy.random.default_rng([seed, workload, stream, ...])`` and are handed
to the library unchanged; everything the library builds from them (models,
algebras) is built in ``setup`` or ``prepare``, outside the timed region.

Calls into the library go through the module objects ``algebra``,
``blocks`` and ``seminorms`` so that the tracer in ``spans.py`` can swap
the functions it measures.

Checks use references that do not come from the code under test: an
identity or inequality between two different algorithms of the library
(Stampfli's identity, the masa bound, the bicommutant bound), or a
dimension known from how the input was built.
"""

from __future__ import annotations

import hashlib

import numpy as np

from commutant import algebra, blocks, seminorms

_ROUND_STREAM = 0
_SETUP_STREAM = 1
_WARMUP_STREAM = 2
_ORDER_STREAM = 3
# stands in for the seed where a workload's matrices are a fixed pool
_POOL_SEED = 0


# ---------------------------------------------------------------------------
# seeded input generation (pure numpy; no library calls)


def _rng(seed: int, wid: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, wid, *key])


def _ginibre(rng, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _hermitian(rng, n: int) -> np.ndarray:
    Z = _ginibre(rng, n)
    return (Z + Z.conj().T) / 2.0


def _unit_opnorm(rng, n: int) -> np.ndarray:
    Z = _ginibre(rng, n)
    return Z / np.linalg.norm(Z, 2)


def _haar(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(_ginibre(rng, n))
    return Q * np.exp(-1j * np.angle(np.diag(R)))


def _opnorm(M) -> float:
    return float(np.linalg.norm(M, 2))


def _digest_update(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _digest_update(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _digest_update(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


def _shuffled(rng, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# workload base


class Workload:
    """One workload at one size profile.

    Subclasses define ``setup_inputs``, ``round_inputs``, ``setup``,
    ``prepare``, ``run`` and ``check``.  ``run`` is the timed instance:
    library calls only.  ``check`` returns a list of failure messages and
    a list of the DistanceReports the instance returned.
    """

    name = ""
    wid = 0
    profiles: dict = {}
    # enough instances that at least ten lie beyond the reported p90
    min_instances = 100

    def __init__(self, seed: int, profile: str = "full"):
        self.seed = int(seed)
        self.sizes = self.profiles[profile]

    def setup_inputs(self) -> dict:
        return {}

    def round_inputs(self, r: int) -> list:
        raise NotImplementedError

    def warmup_inputs(self) -> list:
        """One small instance of every kind, from its own stream."""
        rng = _rng(self.seed, self.wid, _WARMUP_STREAM)
        return self._instances(rng, [self.sizes[0]])

    def input_digest(self, rounds: int = 2) -> str:
        h = hashlib.sha256()
        _digest_update(h, self.setup_inputs())
        _digest_update(h, self.warmup_inputs())
        for r in range(rounds):
            _digest_update(h, self.round_inputs(r))
        return h.hexdigest()

    def setup(self) -> None:
        """Build the amortized library objects; runs inside the timed set-up."""

    def prepare(self, raw: dict) -> dict:
        return raw

    def run(self, inst: dict):
        raise NotImplementedError

    def check(self, inst: dict, out) -> tuple:
        raise NotImplementedError


def _touch_stacks(*algs) -> None:
    # OperatorSubspace.stack is computed lazily on first use
    for A in algs:
        A.space.stack


def _report_failures(label: str, rep) -> list:
    if not rep.lower_bound <= rep.value:
        return [f"{label}: lower_bound {rep.lower_bound!r} > value {rep.value!r}"]
    return []


# ---------------------------------------------------------------------------
# seminorm-batch


class SeminormBatch(Workload):
    """Many T against one prebuilt CommutantModel per (kind, n).

    The sweep pattern of criteria 5, 6 and 11 and of kn_lower_estimate:
    derivation_seminorm(model=..., compute_upper=False) plus dist_opnorm.

    The generators and every T come from one fixed pool, the same for
    every seed, and every round is that pool in an order the seed chooses.
    An ascent's cost depends on T far more than on anything else (masa at
    n = 6: 0.1 to 5 s), so with T drawn from the seed, which slow T a run
    happened to get set a fifth of its throughput.  Runs with any seed and
    any number of rounds therefore time the same mix, slow T included.
    """

    name = "seminorm-batch"
    wid = 1
    kinds = ("scalars", "masa", "star-poly", "poly")
    profiles = {"full": (2, 3, 4, 5, 6), "tiny": (2, 3)}
    # latencies spread over a decade (n = 2..6, heavy-tailed ascent), so the
    # sample median is sparse around its value and needs twice the samples
    min_instances = 200
    # matrices T per (kind, n) in the pool, so a round has 100 instances
    per_cell = 5

    def setup_inputs(self) -> dict:
        rng = _rng(_POOL_SEED, self.wid, _SETUP_STREAM)
        return {n: {"H": _hermitian(rng, n), "X": _ginibre(rng, n)} for n in self.sizes}

    def _instances(self, rng, sizes, copies=1):
        return [
            {"kind": kind, "n": n, "T": _ginibre(rng, n)}
            for n in sizes
            for kind in self.kinds
            for _ in range(copies)
        ]

    def round_inputs(self, r: int) -> list:
        rng = _rng(_POOL_SEED, self.wid, _ROUND_STREAM)
        pool = self._instances(rng, self.sizes, self.per_cell)
        return _shuffled(_rng(self.seed, self.wid, _ORDER_STREAM, r), pool)

    def setup(self) -> None:
        gens = self.setup_inputs()
        self.models = {}
        for n in self.sizes:
            full = algebra.full_matrix_algebra(n)
            algs = {
                "scalars": algebra.scalar_algebra(n),
                "masa": algebra.diagonal_algebra(n),
                "star-poly": algebra.generate_algebra([gens[n]["H"]], star=True),
                "poly": algebra.generate_algebra([gens[n]["X"]]),
            }
            for kind, A in algs.items():
                model = seminorms.commutant_model(A, full)
                _touch_stacks(full, A, model.span_commutant, model.star_commutant,
                              model.bicommutant)
                self.models[kind, n] = model

    def run(self, inst):
        model = self.models[inst["kind"], inst["n"]]
        T = inst["T"]
        dn = seminorms.derivation_seminorm(
            T, model.algebra, model.ambient, model=model, compute_upper=False
        )
        dist = seminorms.dist_opnorm(T, model.algebra.space)
        return dn, dist

    def check(self, inst, out):
        dn, dist = out
        kind, T = inst["kind"], inst["T"]
        scale = 1.0 + _opnorm(T)
        fails = _report_failures("derivation_seminorm", dn) + _report_failures("dist_opnorm", dist)
        # A sits inside its bicommutant, whose elements commute with every
        # unitary of the commutant: ||UT - TU|| <= 2 dist(T, A)
        if dn.value > 2.0 * dist.value + 1e-6 * scale:
            fails.append(f"seminorm {dn.value!r} above twice the distance {dist.value!r}")
        if kind == "scalars" and abs(dn.value - 2.0 * dist.value) > 1e-5 * scale:
            fails.append(f"Stampfli: seminorm {dn.value!r} != 2 * dist {dist.value!r}")
        if kind in ("masa", "star-poly") and dist.value > dn.value + 1e-6:
            # a generic Hermitian generates a masa, so the masa bound applies
            fails.append(f"masa bound: dist {dist.value!r} > seminorm {dn.value!r}")
        if kind == "poly":
            sup = dn.details.get("contraction_sup")
            if dn.value != 0.0 or sup is None:
                fails.append("polynomial algebra: expected a trivial *-commutant")
            elif sup > 2.0 * dist.value + 1e-6 * scale:
                fails.append(f"contraction sup {sup!r} above twice the distance {dist.value!r}")
        return fails, [dn, dist]


# ---------------------------------------------------------------------------
# commutant-scaling


def _partition(n: int, variant: str) -> tuple:
    """Fixed block partitions ((s, m), ...) of n; the seed picks only the basis."""
    if variant == "big":
        return ((n - 2, 1), (1, 2))
    if variant == "ampliated":
        return ((2, (n - 1) // 2), (1, n - 2 * ((n - 1) // 2)))
    k = max(1, n // 3)
    return ((k, 2), (n - 2 * k, 1))


class CommutantScaling(Workload):
    """The structure layer at n = 6..12 with no seminorm work."""

    name = "commutant-scaling"
    wid = 2
    kinds = (
        "center",
        "normal-masa",
        "normal-poly",
        "relative-commutant",
        "double-commutant",
        "wedderburn-twirl",
        "star-closure",
    )
    partition_of = {
        "relative-commutant": "big",
        "double-commutant": "ampliated",
        "wedderburn-twirl": "mixed",
    }
    profiles = {"full": (6, 7, 8, 9, 10, 11, 12), "tiny": (3, 4)}

    def _instances(self, rng, sizes):
        out = []
        for n in sizes:
            for kind in self.kinds:
                inst = {"kind": kind, "n": n}
                if kind in self.partition_of:
                    inst["blocks"] = _partition(n, self.partition_of[kind])
                    inst["U"] = _haar(rng, n)
                if kind == "wedderburn-twirl":
                    inst["T"] = _unit_opnorm(rng, n)
                if kind == "normal-poly":
                    inst["X"] = _ginibre(rng, n)
                if kind == "star-closure":
                    inst["X"], inst["Y"] = _ginibre(rng, n), _ginibre(rng, n)
                out.append(inst)
        return out

    def round_inputs(self, r: int) -> list:
        rng = _rng(self.seed, self.wid, _ROUND_STREAM, r)
        return _shuffled(rng, self._instances(rng, self.sizes))

    def setup(self) -> None:
        self.full = {n: algebra.full_matrix_algebra(n) for n in self.sizes}
        self.masa = {n: algebra.diagonal_algebra(n) for n in self.sizes}
        _touch_stacks(*self.full.values(), *self.masa.values())

    def prepare(self, raw):
        inst = dict(raw)
        if "blocks" in inst:
            inst["B"] = blocks.block_algebra(inst["blocks"], inst["U"])
            _touch_stacks(inst["B"])
        if inst["kind"] == "normal-poly":
            inst["P"] = algebra.generate_algebra([inst["X"]])
            _touch_stacks(inst["P"])
        return inst

    def run(self, inst):
        kind, n = inst["kind"], inst["n"]
        full = self.full[n]
        if kind == "center":
            return algebra.center(full)
        if kind == "normal-masa":
            return algebra.is_normal(self.masa[n], full)
        if kind == "normal-poly":
            return algebra.is_normal(inst["P"], full)
        if kind == "relative-commutant":
            return algebra.relative_commutant(inst["B"], full)
        if kind == "double-commutant":
            return algebra.double_commutant(inst["B"], full)
        if kind == "wedderburn-twirl":
            return blocks.wedderburn(inst["B"]), blocks.twirl_expectation(inst["T"], inst["B"])
        return algebra.generate_algebra([inst["X"], inst["Y"]], star=True)

    def check(self, inst, out):
        kind, n = inst["kind"], inst["n"]
        parts = inst.get("blocks", ())
        fails = []
        if kind == "center" and out.dim != 1:
            fails.append(f"dim center(full:{n}) = {out.dim}, expected 1")
        elif kind in ("normal-masa", "normal-poly") and out[0] is not True:
            fails.append(f"{kind}: algebra reported not normal")
        elif kind == "relative-commutant":
            want = sum(m * m for _, m in parts)
            if out.dim != want:
                fails.append(f"commutant of {parts} has dim {out.dim}, expected {want}")
        elif kind == "double-commutant":
            want = sum(s * s for s, _ in parts)
            if out.dim != want:
                fails.append(f"bicommutant of {parts} has dim {out.dim}, expected {want}")
        elif kind == "wedderburn-twirl":
            st, tw = out
            want = tuple(sorted(parts, key=lambda b: (-b[0], -b[1])))
            if st.blocks != want:
                fails.append(f"wedderburn blocks {st.blocks}, expected {want}")
            residual = inst["B"].space.residual(tw)
            if not residual < 1e-8:
                fails.append(f"twirl residual {residual!r} in the bicommutant")
            if _opnorm(tw) > _opnorm(inst["T"]) + 1e-9:
                fails.append("twirl expanded the operator norm")
        elif kind == "star-closure" and out.dim != n * n:
            fails.append(f"*-closure of two generic generators has dim {out.dim}, expected {n * n}")
        return fails, []


WORKLOADS = {w.name: w for w in (SeminormBatch, CommutantScaling)}
