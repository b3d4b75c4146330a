"""Seeded acceptance and invariant suites with order-independent parallelism.

Every task is a module-level function of the suite seed alone, so a
process pool can run tasks in any order while the assembled report stays
byte-identical to the serial run: results are collected in catalog
order, all randomness flows from the seed through per-item counters, and
wall-clock timings are kept out of the report payload (they travel on a
separate channel for the budget checks).
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from .algebra import (
    block_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    generate_algebra,
    scalar_algebra,
    verify_algebra,
)
from .blocks import twirl_expectation, wedderburn
from .config import DEFAULT_CONFIG, InvalidInputError, NumericConfig
from .gallery import (
    commutative_normality_scan,
    corner_traceless_report,
    paired_copies_report,
    polynomial_normality_sweep,
    ramp_shift_report,
    run_gallery,
    selfcommutant_report,
)
from .linalg import (
    haar_unitary,
    op_norm,
    orthonormalize,
    random_hermitian,
    random_matrix,
    subspace_distance,
)
from .seminorms import (
    commutant_model,
    derivation_seminorm,
    dist_opnorm,
    kn_lower_estimate,
    sampling_seminorm_bound,
)
from .serialize import (
    algebra_from_json,
    algebra_to_json,
    canonical_dumps,
    matrix_from_json,
    matrix_to_json,
)

__all__ = ["run_suite", "SUITE_NAMES", "ACCEPTANCE_BUDGETS", "TOTAL_BUDGET"]


ACCEPTANCE_BUDGETS = {
    1: 1.0,
    2: 1.0,
    3: 30.0,
    4: 60.0,
    5: 60.0,
    6: 60.0,
    7: 60.0,
    8: 5.0,
    9: 10.0,
    10: 60.0,
    11: 60.0,
}
TOTAL_BUDGET = 300.0


def _cfg(seed: int) -> NumericConfig:
    return NumericConfig(rng_seed=int(seed))


# ---------------------------------------------------------------------------
# acceptance criteria


def _criterion_1(seed: int) -> dict:
    rep = selfcommutant_report(_cfg(seed))
    worst = max(item["self_commutant_distance"] for item in rep["items"])
    return {
        "id": 1,
        "name": "triangular algebras equal their own commutant",
        "worst_distance": worst,
        "passed": bool(rep["passed"] and worst < 1e-9),
    }


def _criterion_2(seed: int) -> dict:
    rep = corner_traceless_report(_cfg(seed))
    return {
        "id": 2,
        "name": "corner algebra gains one dimension in its bicommutant",
        "dim": rep["dim"],
        "bicommutant_dim": rep["bicommutant_dim"],
        "normal": rep["normal"],
        "passed": rep["passed"],
    }


def _criterion_3(seed: int) -> dict:
    rep = polynomial_normality_sweep((2, 3, 4, 5, 6), 200, _cfg(seed))
    return {
        "id": 3,
        "name": "polynomial algebras of one matrix are normal",
        "per_dim": rep["per_dim"],
        "passed": rep["passed"],
    }


def _criterion_4(seed: int) -> dict:
    cfg = _cfg(seed)
    small = [commutative_normality_scan(n, 200, cfg) for n in (2, 3)]
    injected = commutative_normality_scan(4, 0, cfg, conjugates=20)
    passed = all(r["passed"] for r in small) and injected["passed"]
    return {
        "id": 4,
        "name": "commutative normality dichotomy across ambient sizes",
        "scan_2": {k: small[0][k] for k in ("trials", "normal")},
        "scan_3": {k: small[1][k] for k in ("trials", "normal")},
        "injected": injected["injected"],
        "injected_non_normal": injected["injected_non_normal"],
        "passed": bool(passed),
    }


def _sweep(seed: int, make, key: int):
    """Yield (T, seminorm, distance) for 100 seeded T in M_n against make(n), n = 2..5.

    One commutant model serves each n; the seminorm is the ascent's value
    and the distance the certified operator-norm distance to make(n).
    """
    cfg = _cfg(seed)
    for n in (2, 3, 4, 5):
        ambient = full_matrix_algebra(n)
        model = commutant_model(make(n), ambient, cfg)
        for i in range(100):
            T = random_matrix(cfg.rng(key, n, i), n)
            dn = derivation_seminorm(
                T, model.algebra, ambient, cfg, model=model, compute_upper=False
            ).value
            yield T, dn, dist_opnorm(T, model.algebra.space, cfg).value


def _criterion_5(seed: int) -> dict:
    scaled = [
        abs(dn - 2.0 * dist) / (1.0 + op_norm(T))
        for T, dn, dist in _sweep(seed, scalar_algebra, 505)
    ]
    failures = sum(int(x > 1e-5) for x in scaled)
    return {
        "id": 5,
        "name": "seminorm against scalars doubles the distance to scalars",
        "instances": 400,
        "worst_scaled_deviation": float(max(scaled)),
        "failures": failures,
        "passed": failures == 0,
    }


def _criterion_6(seed: int) -> dict:
    excess = [dist - dn for _, dn, dist in _sweep(seed, diagonal_algebra, 506)]
    failures = sum(int(x > 1e-6) for x in excess)
    kn = kn_lower_estimate(diagonal_algebra(4), full_matrix_algebra(4), 200, _cfg(seed))
    kn_ok = 0.0 < kn <= 1.0 + 1e-4
    return {
        "id": 6,
        "name": "masa distance below the seminorm; empirical constant at most one",
        "instances": 400,
        "worst_excess": float(max(excess)),
        "failures": failures,
        "kn_estimate": float(kn),
        "passed": failures == 0 and bool(kn_ok),
    }


def _random_block_partition(rng, n: int):
    blocks = []
    left = n
    while left:
        s = int(rng.integers(1, left + 1))
        m = int(rng.integers(1, left // s + 1))
        blocks.append((s, m))
        left -= s * m
    return blocks


def _criterion_7(seed: int) -> dict:
    cfg = _cfg(seed)
    worst_excess = -np.inf
    worst_residual = 0.0
    failures = 0
    for i in range(100):
        rng = cfg.rng(507, i)
        n = int(rng.integers(2, 7))
        A = block_algebra(_random_block_partition(rng, n), haar_unitary(rng, n))
        T = random_matrix(rng, n)
        T = T / op_norm(T)
        ambient = full_matrix_algebra(n)
        model = commutant_model(A, ambient, cfg)
        tw = twirl_expectation(T, A, cfg)
        dn = derivation_seminorm(T, A, ambient, cfg, model=model, compute_upper=False).value
        excess = op_norm(T - tw) - dn
        # membership in the solved A'', not in span(A) the twirl projects onto
        residual = float(model.bicommutant.space.residual(tw))
        worst_excess = max(worst_excess, excess)
        worst_residual = max(worst_residual, residual)
        failures += int(excess > 1e-6 or residual > 1e-8)
    return {
        "id": 7,
        "name": "twirl lands in the bicommutant within the seminorm radius",
        "instances": 100,
        "worst_excess": float(worst_excess),
        "worst_membership_residual": worst_residual,
        "failures": failures,
        "passed": failures == 0,
    }


def _criterion_8(seed: int) -> dict:
    rep = ramp_shift_report(10, 200, cfg=_cfg(seed))
    return {
        "id": 8,
        "name": "ramp shift commutator stays below two over the ramp length",
        "interior_commutator_norm": rep["interior_commutator_norm"],
        "raw_commutator_norm": rep["raw_commutator_norm"],
        "doubling_slack": rep["doubling_slack"],
        "bound": rep["bound"],
        "passed": rep["passed"],
    }


def _criterion_9(seed: int) -> dict:
    cfg = _cfg(seed)
    reports = [paired_copies_report(np.diag([1.0, 2.0]), cfg)]
    for i in range(20):
        rng = cfg.rng(509, i)
        for _ in range(10):
            a = random_hermitian(rng, 3)
            vals = np.sort(np.linalg.eigvalsh(a))
            if np.min(np.diff(vals)) > 1e-3:
                break
        reports.append(paired_copies_report(a, cfg))
    failures = sum(
        int(not (r["passed"] and r["strict"] and r["matches_paired_copies"]))
        for r in reports
    )
    return {
        "id": 9,
        "name": "paired-copy bicommutant decouples and strictly grows",
        "instances": len(reports),
        "failures": failures,
        "fixed_dims": [reports[0]["algebra_dim"], reports[0]["bicommutant_dim"]],
        "passed": failures == 0,
    }


def _menu_algebra(rng, n: int, kind: int, cfg: NumericConfig):
    """Kind 0..3: the scalars, the masa, a polynomial or a *-polynomial algebra."""
    if kind == 0:
        return scalar_algebra(n)
    if kind == 1:
        return diagonal_algebra(n)
    if kind == 2:
        return generate_algebra([random_matrix(rng, n)], cfg)
    return generate_algebra([random_hermitian(rng, n)], cfg, star=True)


def _criterion_10(seed: int) -> dict:
    cfg = _cfg(seed)
    worst_deficit = 0.0
    failures = 0
    for i in range(50):
        rng = cfg.rng(510, i)
        n = 2 if i < 25 else 3
        # full-ball commutants are sampled only at block size two: ten thousand
        # Haar draws cover the unitary group of a 2x2 block to well under the
        # two-percent agreement bar, but leave about three percent uncovered
        # for a full 3x3 block
        kind = 2 if (n, i % 4) == (3, 0) else i % 4
        A = _menu_algebra(rng, n, kind, cfg)
        ambient = full_matrix_algebra(n)
        T = random_matrix(rng, n)
        model = commutant_model(A, ambient, cfg)
        dn = derivation_seminorm(T, A, ambient, cfg, model, compute_upper=False).value
        oracle = sampling_seminorm_bound(T, A, ambient, 10_000, cfg, model)
        scale = max(1.0, op_norm(T))
        dominated = dn >= oracle - 1e-9 * scale
        deficit = (dn - oracle) / max(oracle, 1e-6 * scale)
        worst_deficit = max(worst_deficit, deficit)
        failures += int(not dominated or deficit > 0.02)
    return {
        "id": 10,
        "name": "ascent dominates the sampling oracle and agrees within two percent",
        "instances": 50,
        "worst_relative_deficit": float(worst_deficit),
        "failures": failures,
        "passed": failures == 0,
    }


def _law_instance(cfg: NumericConfig, i: int) -> bool:
    rng = cfg.rng(511, i)
    n = 2 + (i % 2)
    A = _menu_algebra(rng, n, (i // 2) % 4, cfg)
    ambient = full_matrix_algebra(n)
    model = commutant_model(A, ambient, cfg)
    T1, T2 = random_matrix(rng, n), random_matrix(rng, n)
    scale = 1.0 + op_norm(T1) + op_norm(T2)
    tol = 1e-6 * scale

    def dn(T):
        return derivation_seminorm(
            T, A, ambient, cfg, model=model, compute_upper=False
        ).value

    v1, v2, vs = dn(T1), dn(T2), dn(T1 + T2)
    c = -1.3 + 0.9j
    ok = vs <= v1 + v2 + tol
    ok = ok and abs(dn(c * T1) - abs(c) * v1) <= tol
    ok = ok and abs(dn(T1.conj().T) - v1) <= tol
    dist = dist_opnorm(T1, A.space, cfg).value
    ok = ok and v1 <= 2.0 * dist + 1e-6
    # zero characterization: bicommutant elements are seminorm-null, and a
    # seminorm above 2e-6 forces a genuinely positive distance
    za = model.bicommutant.space.random_element(rng)
    ok = ok and dn(za) < 1e-7 * max(1.0, op_norm(za))
    ok = ok and model.bicommutant.space.residual(za) < 1e-8
    if v1 >= 2e-6:
        ok = ok and dist >= 5e-7
    return bool(ok)


def _criterion_11(seed: int) -> dict:
    cfg = _cfg(seed)
    violations = sum(int(not _law_instance(cfg, i)) for i in range(200))
    return {
        "id": 11,
        "name": "seminorm laws hold on seeded instances",
        "instances": 200,
        "violations": violations,
        "passed": violations == 0,
    }


ACCEPTANCE_TASKS = (
    _criterion_1,
    _criterion_2,
    _criterion_3,
    _criterion_4,
    _criterion_5,
    _criterion_6,
    _criterion_7,
    _criterion_8,
    _criterion_9,
    _criterion_10,
    _criterion_11,
)


# ---------------------------------------------------------------------------
# invariant suite


def _inv_algebra_closure(seed: int) -> dict:
    cfg = _cfg(seed)
    failures = 0
    for i in range(20):
        rng = cfg.rng(601, i)
        n = int(rng.integers(2, 6))
        if i % 3 == 0:
            A = generate_algebra([random_matrix(rng, n)], cfg)
        elif i % 3 == 1:
            A = generate_algebra([random_hermitian(rng, n)], cfg, star=True)
        else:
            A = generate_algebra(
                [random_matrix(rng, n), random_matrix(rng, n)], cfg, star=True
            )
        failures += int(not verify_algebra(A, cfg)["passed"])
    return {"name": "generated algebras satisfy closure invariants", "instances": 20,
            "failures": failures, "passed": failures == 0}


def _inv_block_reconstruction(seed: int) -> dict:
    cfg = _cfg(seed)
    worst = 0.0
    for i in range(10):
        rng = cfg.rng(602, i)
        n = int(rng.integers(2, 7))
        A = block_algebra(_random_block_partition(rng, n), haar_unitary(rng, n))
        st = wedderburn(A, cfg)
        worst = max(worst, subspace_distance(block_algebra(st.blocks, st.unitary).space, A.space))
    return {"name": "block decomposition reconstructs the algebra", "instances": 10,
            "worst_distance": float(worst), "passed": worst < 1e-8}


def _inv_twirl_is_expectation(seed: int) -> dict:
    cfg = _cfg(seed)
    worst = 0.0
    for i in range(10):
        rng = cfg.rng(603, i)
        n = int(rng.integers(2, 7))
        A = block_algebra(_random_block_partition(rng, n), haar_unitary(rng, n))
        T = random_matrix(rng, n)
        tw = twirl_expectation(T, A, cfg)
        # independent reference: the Haar average over the commutant's
        # unitaries, which keeps each Wedderburn block's multiplicity average
        st = wedderburn(A, cfg)
        U = st.unitary
        ref = U @ st.average((U.conj().T @ T @ U)[None])[0] @ U.conj().T
        tw2 = twirl_expectation(tw, A, cfg)
        worst = max(
            worst,
            op_norm(tw - ref) / max(1.0, op_norm(T)),
            op_norm(tw2 - tw) / max(1.0, op_norm(T)),
        )
    return {"name": "twirl agrees with the orthogonal expectation and is idempotent",
            "instances": 10, "worst_deviation": float(worst), "passed": worst < 1e-8}


def _inv_seminorm_laws(seed: int) -> dict:
    cfg = _cfg(seed)
    violations = sum(int(not _law_instance(cfg, i)) for i in range(20))
    return {"name": "seminorm laws on a short seeded sweep", "instances": 20,
            "violations": violations, "passed": violations == 0}


def _inv_serialization_round_trip(seed: int) -> dict:
    cfg = _cfg(seed)
    ok = True
    for i in range(5):
        rng = cfg.rng(604, i)
        n = int(rng.integers(1, 7))
        M = random_matrix(rng, n)
        ok = ok and bool(np.array_equal(matrix_from_json(matrix_to_json(M)), M))
        A = generate_algebra([random_hermitian(rng, max(2, n))], cfg, star=True)
        B = algebra_from_json(algebra_to_json(A), cfg)
        ok = ok and all(np.array_equal(x, y) for x, y in zip(A.basis, B.basis))
    return {"name": "interchange formats round-trip bit-exactly", "instances": 5,
            "passed": bool(ok)}


def _inv_gallery_determinism(seed: int) -> dict:
    cfg = _cfg(seed)
    names = ["corner-traceless-4x4", "commutative-scan-2", "structure-stability"]
    a = canonical_dumps(run_gallery(cfg, names=names))
    b = canonical_dumps(run_gallery(cfg, names=names))
    return {"name": "gallery reruns are byte-identical", "passed": a == b}


INVARIANT_TASKS = (
    _inv_algebra_closure,
    _inv_block_reconstruction,
    _inv_twirl_is_expectation,
    _inv_seminorm_laws,
    _inv_serialization_round_trip,
    _inv_gallery_determinism,
)

SUITE_NAMES = ("acceptance", "invariants")


# ---------------------------------------------------------------------------
# runner


def _timed_task(which: str, index: int, seed: int):
    tasks = ACCEPTANCE_TASKS if which == "acceptance" else INVARIANT_TASKS
    start = time.perf_counter()
    result = tasks[index](seed)
    return index, result, time.perf_counter() - start


def run_suite(name: str, seed: int, jobs: int = 1):
    """Run a suite; returns (report, timings) with timings kept separate.

    The report is a plain dict whose canonical JSON is a pure function of
    (name, seed); wall-clock durations go into the second return value
    only, so reruns and different worker counts can be compared
    byte-for-byte.
    """
    if name not in SUITE_NAMES:
        raise InvalidInputError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be at least 1, got {jobs}")
    tasks = ACCEPTANCE_TASKS if name == "acceptance" else INVARIANT_TASKS
    indices = range(len(tasks))
    # Under fork the pool starts every worker up front, so more workers
    # than tasks would only be processes that never get work.
    workers = min(jobs, len(tasks))
    if workers == 1:
        rows = [_timed_task(name, i, seed) for i in indices]
    else:
        # Loading the pool pulls in multiprocessing; serial runs skip it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_timed_task, name, i, seed) for i in indices]
            rows = [f.result() for f in futures]
    rows.sort(key=lambda r: r[0])
    results = [r[1] for r in rows]
    timings = {}
    for idx, result, dt in rows:
        label = f"criterion_{result['id']}" if "id" in result else f"task_{idx + 1}"
        timings[label] = dt
    timings["total"] = sum(t for k, t in timings.items() if k != "total")
    report = {
        "suite": name,
        "cfg": dataclasses.asdict(_cfg(seed)),
        "results": results,
        "passed": all(r["passed"] for r in results),
    }
    digest = hashlib.sha256(canonical_dumps(report).encode()).hexdigest()
    report["payload_digest"] = digest
    return report, timings
