"""Acceptance gate: every headline claim, one test per criterion.

The whole battery is a single CLI invocation (`suite acceptance --seed 42`)
run once per session; each test inspects one criterion's result row and its
wall-clock budget, prints a pass/fail line, and asserts.  The final test
reruns the suite (serially and with a worker pool) and demands byte-equal
output.
"""

import json
import subprocess
import sys

import pytest

from commutant.suites import ACCEPTANCE_BUDGETS, TOTAL_BUDGET


def run_acceptance_cli(tmpdir, jobs, env):
    timings_path = tmpdir / f"timings-{jobs}.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "commutant.cli", "suite", "acceptance",
            "--seed", "42", "--jobs", str(jobs), "--timings", str(timings_path),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(timings_path.read_text())


@pytest.fixture(scope="module")
def acceptance(tmp_path_factory, package_env):
    tmpdir = tmp_path_factory.mktemp("acceptance")
    stdout, timings = run_acceptance_cli(tmpdir, jobs=1, env=package_env)
    report = json.loads(stdout)
    rows = {r["id"]: r for r in report["results"]}
    return {"tmpdir": tmpdir, "stdout": stdout, "report": report,
            "rows": rows, "timings": timings}


def check(acceptance, cid, detail):
    row = acceptance["rows"][cid]
    elapsed = acceptance["timings"][f"criterion_{cid}"]
    budget = ACCEPTANCE_BUDGETS[cid]
    ok = row["passed"] and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {cid:2d} [{verdict}] {detail(row)} ({elapsed:.1f}s / {budget:.0f}s)")
    assert row["passed"], row
    assert elapsed < budget, (elapsed, budget)


def test_criterion_01_triangular_self_commutancy(acceptance):
    check(acceptance, 1, lambda r: f"commutant distance {r['worst_distance']:.2e} < 1e-9")


def test_criterion_02_corner_counterexample(acceptance):
    check(acceptance, 2, lambda r:
          f"dim {r['dim']} -> bicommutant {r['bicommutant_dim']}, normal={r['normal']}")


def test_criterion_03_polynomial_sweep(acceptance):
    check(acceptance, 3, lambda r:
          f"{sum(d['trials'] for d in r['per_dim'])} polynomial algebras all normal")


def test_criterion_04_commutative_dichotomy(acceptance):
    check(acceptance, 4, lambda r:
          f"scans normal, {r['injected']} injected conjugates non-normal")


def test_criterion_05_scalar_center_constant(acceptance):
    check(acceptance, 5, lambda r:
          f"worst scaled |dn - 2 dist| = {r['worst_scaled_deviation']:.2e} <= 1e-5")


def test_criterion_06_masa_bound(acceptance):
    check(acceptance, 6, lambda r:
          f"worst dist-over-dn excess {r['worst_excess']:.2e}, kn {r['kn_estimate']:.3f}")


def test_criterion_07_twirl_sandwich(acceptance):
    check(acceptance, 7, lambda r:
          f"worst excess {r['worst_excess']:.2e}, membership residual "
          f"{r['worst_membership_residual']:.2e}")


def test_criterion_08_ramp_commutator(acceptance):
    check(acceptance, 8, lambda r:
          f"interior commutator {r['interior_commutator_norm']:.4f} <= {r['bound']:.2f}, "
          f"doubling slack {r['doubling_slack']:.2e}")


def test_criterion_09_paired_copies(acceptance):
    check(acceptance, 9, lambda r:
          f"{r['instances']} bicommutants equal the two-block hull, strictly larger")


def test_criterion_10_sampling_oracle_agreement(acceptance):
    check(acceptance, 10, lambda r:
          f"worst relative deficit {r['worst_relative_deficit']:.4f} <= 0.02")


def test_criterion_11_seminorm_laws(acceptance):
    check(acceptance, 11, lambda r:
          f"{r['violations']} violations over {r['instances']} instances")


def test_criterion_12_byte_identical_reports(acceptance, package_env):
    serial, _ = run_acceptance_cli(acceptance["tmpdir"], jobs=1, env=package_env)
    pooled, _ = run_acceptance_cli(acceptance["tmpdir"], jobs=2, env=package_env)
    same = acceptance["stdout"] == serial == pooled
    print(f"criterion 12 [{'PASS' if same else 'FAIL'}] rerun and jobs=2 byte-identical")
    assert acceptance["stdout"] == serial
    assert acceptance["stdout"] == pooled


def test_total_runtime_budget(acceptance):
    total = acceptance["timings"]["total"]
    print(f"total [{'PASS' if total < TOTAL_BUDGET else 'FAIL'}] {total:.1f}s / {TOTAL_BUDGET:.0f}s")
    assert total < TOTAL_BUDGET
