"""End-to-end checks of the command-line front end."""

import concurrent.futures
import json

import numpy as np
import pytest

from commutant import algebra as algebra_module
from commutant.algebra import (
    diagonal_algebra,
    double_commutant,
    full_matrix_algebra,
    generate_algebra,
)
from commutant.cli import COMMANDS, main
from commutant.config import StructureError
from commutant.gallery import corner_traceless_algebra, selfcommutant_triangular
from commutant.serialize import algebra_to_json, matrix_from_json, matrix_to_json
from commutant.suites import ACCEPTANCE_TASKS


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def triangular_file(tmp_path):
    return write_json(tmp_path / "n1.json", algebra_to_json(selfcommutant_triangular(1)))


@pytest.fixture
def corner_file(tmp_path):
    return write_json(tmp_path / "cex.json", algebra_to_json(corner_traceless_algebra()))


def test_normal_expectation_met(capsys, triangular_file):
    code, out = run_cli(
        capsys, "normal", "--algebra", triangular_file,
        "--ambient", "full:3", "--expect", "normal",
    )
    assert code == 0
    assert out["result"]["normal"] is True
    assert out["cfg"]["rng_seed"] == 0


def test_normal_expectation_violated_exits_one(capsys, corner_file):
    code, out = run_cli(
        capsys, "normal", "--algebra", corner_file,
        "--ambient", "full:4", "--expect", "normal",
    )
    assert code == 1
    assert out["result"]["normal"] is False
    assert out["result"]["witness"] is not None


def test_bicommutant_dims(capsys, corner_file):
    code, out = run_cli(
        capsys, "bicommutant", "--algebra", corner_file, "--ambient", "full:4"
    )
    assert code == 0
    assert out["result"]["dim"] == 4
    assert out["result"]["bicommutant_dim"] == 5


def test_dn_dist_ratio_two_for_scalars(capsys, tmp_path):
    rng = np.random.default_rng(11)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    tpath = write_json(tmp_path / "t.json", matrix_to_json(T))
    code1, out1 = run_cli(
        capsys, "dn", "--t", tpath, "--algebra", "scalars:3", "--ambient", "full:3"
    )
    code2, out2 = run_cli(capsys, "dist", "--t", tpath, "--space", "scalars:3")
    assert code1 == 0 and code2 == 0
    ratio = out1["result"]["report"]["value"] / out2["result"]["report"]["value"]
    assert abs(ratio - 2.0) <= 1e-4


def test_gen_reports_algebra_and_check(capsys, tmp_path):
    gens = write_json(
        tmp_path / "g.json", [matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]]))]
    )
    code, out = run_cli(capsys, "gen", "--generators", gens)
    assert code == 0
    assert len(out["result"]["algebra"]["basis"]) == 2
    assert out["result"]["check"]["passed"] is True


def test_commutant_center_wedderburn_shorthands(capsys):
    code, out = run_cli(capsys, "commutant", "--algebra", "diag:3", "--ambient", "full:3")
    assert code == 0 and out["result"]["dim"] == 3
    code, out = run_cli(capsys, "center", "--algebra", "full:4")
    assert code == 0 and out["result"]["dim"] == 1
    code, out = run_cli(capsys, "wedderburn", "--algebra", "diag:3")
    assert code == 0
    assert out["result"]["structure"]["blocks"] == [{"m": 1, "s": 1}] * 3


def _expect_inputs(tmp_path, algebra):
    """A seeded 3 x 3 T file and the algebra: diag:3, or a non-unital corner file."""
    rng = np.random.default_rng(5)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    tpath = write_json(tmp_path / "t.json", matrix_to_json(T))
    if algebra == "diag:3":
        return tpath, algebra, diagonal_algebra(3)
    # non-unital: the compression of a Hermitian to a rank-2 corner
    P = np.diag([1.0, 1.0, 0.0])
    H = rng.standard_normal((3, 3))
    A = generate_algebra([P @ (H + H.T) @ P], unital=False, star=True)
    assert not A.unital
    return tpath, write_json(tmp_path / "a.json", algebra_to_json(A)), A


@pytest.mark.parametrize("algebra", ["diag:3", "corner"])
def test_expect_lands_in_bicommutant(capsys, tmp_path, algebra):
    tpath, spec, A = _expect_inputs(tmp_path, algebra)
    code, out = run_cli(capsys, "expect", "--t", tpath, "--algebra", spec)
    assert code == 0
    assert set(out["result"]) == {"expectation", "moved"}
    D = double_commutant(A, full_matrix_algebra(3))
    assert D.space.residual(matrix_from_json(out["result"]["expectation"])) <= 1e-8
    assert out["result"]["moved"] >= 0.0


@pytest.mark.parametrize("algebra", ["diag:3", "corner"])
def test_expect_solves_no_commutant(capsys, monkeypatch, tmp_path, algebra):
    # the twirl projects onto span(A ∪ {I}), which is A'' for the selfadjoint
    # A it accepts, so nothing needs the commutant solver
    tpath, spec, _ = _expect_inputs(tmp_path, algebra)
    calls = []
    real = algebra_module.relative_commutant

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(algebra_module, "relative_commutant", counted)
    monkeypatch.setattr("commutant.cli.relative_commutant", counted)
    code, _ = run_cli(capsys, "expect", "--t", tpath, "--algebra", spec)
    assert code == 0
    assert calls == []


def test_kn_masa_estimate_in_unit_interval(capsys):
    code, out = run_cli(
        capsys, "kn", "--algebra", "diag:2", "--ambient", "full:2", "--samples", "20"
    )
    assert code == 0
    assert 0.0 < out["result"]["kn_lower_estimate"] <= 1.0 + 1e-4


def test_gallery_single_item_to_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main([
        "gallery", "--items", "corner-traceless-4x4", "--output", str(target)
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    assert data["result"]["passed"] is True
    assert [item["name"] for item in data["result"]["items"]] == ["corner-traceless-4x4"]


def test_gallery_unknown_item_exits_two(capsys):
    code = main(["gallery", "--items", "no-such-item"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_size_beyond_cap_exits_two_without_traceback(capsys, tmp_path):
    gens = write_json(tmp_path / "g65.json", [matrix_to_json(np.eye(65))])
    alg = write_json(tmp_path / "a65.json", {
        "ambient_dim": 65, "unital": True, "selfadjoint": True,
        "basis": [matrix_to_json(np.eye(65) / np.sqrt(65))],
    })
    for argv in (["center", "--algebra", "full:65"], ["gen", "--generators", gens],
                 ["center", "--algebra", alg]):
        code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


def test_distance_beyond_its_size_cap_exits_two_before_solving(capsys, monkeypatch, tmp_path):
    # all of M_64 would need a (8194, 128, 128) complex direction stack, 2.1 GB
    def no_solve(*args):
        pytest.fail("the primal-dual path ran")

    monkeypatch.setattr("commutant.seminorms._primal_dual_solve", no_solve)
    T = np.random.default_rng(17).standard_normal((64, 64))
    tpath = write_json(tmp_path / "t64.json", matrix_to_json(T))
    code = main(["dist", "--t", tpath, "--space", "full:64"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_gen_star_of_generic_matrices_fills_and_checks_m18(capsys, tmp_path):
    # two generic 18 x 18 matrices *-generate all 324 dimensions of M_18
    rng = np.random.default_rng(18)
    gens = write_json(tmp_path / "g18.json", [
        matrix_to_json(rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18)))
        for _ in range(2)
    ])
    code, out = run_cli(capsys, "gen", "--generators", gens, "--star")
    assert code == 0
    assert len(out["result"]["algebra"]["basis"]) == 324
    assert out["result"]["check"]["passed"] is True
    assert out["result"]["check"]["closure_defect"] == 0.0


def test_center_of_full_algebra_read_from_json(capsys, tmp_path):
    alg = write_json(tmp_path / "m18.json", algebra_to_json(full_matrix_algebra(18)))
    code, out = run_cli(capsys, "center", "--algebra", alg)
    assert code == 0 and out["result"]["dim"] == 1


@pytest.mark.parametrize("command", ["center", "normal", "dn"])
def test_span_not_closed_under_products_exits_two(capsys, tmp_path, command):
    # span{E12, E21} is selfadjoint, but E12 E21 = E11 lies outside it
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    alg = write_json(tmp_path / "open.json", {
        "ambient_dim": 2, "unital": False, "selfadjoint": True,
        "basis": [matrix_to_json(E12), matrix_to_json(E12.T)],
    })
    argv = {
        "center": ["center", "--algebra", alg],
        "normal": ["normal", "--algebra", alg, "--ambient", "full:2"],
        "dn": ["dn", "--t", write_json(tmp_path / "t.json", matrix_to_json(np.diag([1.0, 0.0]))),
               "--algebra", alg, "--ambient", "full:2"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["center", "--algebra", "full:3", "--seed", "-1"],
        ["kn", "--algebra", "diag:2", "--ambient", "full:2", "--seed", "-2"],
        ["gallery", "--items", "corner-traceless-4x4", "--seed", "-1"],
        ["suite", "invariants", "--seed", "-1"],
        ["kn", "--algebra", "diag:2", "--ambient", "full:2", "--samples", "0"],
        ["kn", "--algebra", "diag:2", "--ambient", "full:2", "--samples", "-3"],
    ],
)
def test_negative_seed_or_no_samples_exits_two_without_traceback(capsys, argv):
    code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_uncertified_structure_exits_three(capsys, monkeypatch):
    def uncertified(A, cfg):
        raise StructureError("no draw gave a certified block structure")

    monkeypatch.setattr("commutant.cli.wedderburn", uncertified)
    code = main(["wedderburn", "--algebra", "diag:3"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


def test_failed_closure_check_exits_three(capsys, monkeypatch, tmp_path):
    def failing(A, cfg):
        return {"closure_defect": 0.5, "passed": False}

    monkeypatch.setattr("commutant.cli.verify_algebra", failing)
    gens = write_json(tmp_path / "g.json", [matrix_to_json(np.eye(2))])
    code, out = run_cli(capsys, "gen", "--generators", gens)
    assert code == 3
    assert out["result"]["check"]["passed"] is False


def test_uncertified_distance_exits_three(capsys, monkeypatch, tmp_path):
    # the distance path cannot factor its first point: an uncertified projection
    def off_the_cone(F):
        raise np.linalg.LinAlgError("off the cone")

    monkeypatch.setattr(np.linalg, "cholesky", off_the_cone)
    T = np.random.default_rng(16).standard_normal((3, 3))
    tpath = write_json(tmp_path / "t.json", matrix_to_json(T))
    code, out = run_cli(capsys, "dist", "--t", tpath, "--space", "diag:3")
    assert code == 3
    assert out["result"]["report"]["converged"] is False


def test_open_seminorm_bracket_exits_three(capsys, tmp_path):
    # the masa ascent's value stays below 2 dist(T, A''): the bracket is open
    rng = np.random.default_rng(17)
    T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    tpath = write_json(tmp_path / "t.json", matrix_to_json(T))
    code, out = run_cli(
        capsys, "dn", "--t", tpath, "--algebra", "diag:5", "--ambient", "full:5"
    )
    assert code == 3
    report = out["result"]["report"]
    assert report["converged"] is False
    assert report["lower"] == report["value"] < report["upper"]


def test_missing_input_file_exits_two(capsys):
    code = main(["dist", "--t", "does-not-exist.json", "--space", "scalars:2"])
    assert code == 2


def test_unknown_command_usage_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_suite_invariants_deterministic_and_records_cfg(capsys, tmp_path):
    timings = tmp_path / "tim.json"
    code, out1 = run_cli(
        capsys, "suite", "invariants", "--seed", "7", "--timings", str(timings)
    )
    assert code == 0
    assert out1["passed"] is True
    assert out1["cfg"]["rng_seed"] == 7
    assert "inputs" not in out1
    clock = json.loads(timings.read_text())
    assert set(clock) > {"total"}
    code, out2 = run_cli(capsys, "suite", "invariants", "--seed", "7")
    assert out1 == out2


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_suite_jobs_below_one_exits_two_before_any_task(capsys, monkeypatch, jobs):
    ran = []
    monkeypatch.setattr("commutant.suites._timed_task", lambda *args: ran.append(args))
    code = main(["suite", "acceptance", "--jobs", jobs])
    assert code == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_suite_pool_gets_at_most_one_worker_per_task(monkeypatch):
    # the fake pool raises before any worker exists, so no process starts
    asked, ran = [], []

    class NoPool:
        def __init__(self, max_workers):
            asked.append(max_workers)
            raise RuntimeError("pool refused")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr("commutant.suites._timed_task", lambda *args: ran.append(args))
    with pytest.raises(RuntimeError, match="pool refused"):
        main(["suite", "acceptance", "--jobs", "64"])
    assert asked == [len(ACCEPTANCE_TASKS)]
    assert ran == []


def test_custom_tol_and_seed_recorded(capsys):
    code, out = run_cli(
        capsys, "center", "--algebra", "full:2", "--tol", "1e-8", "--seed", "3"
    )
    assert code == 0
    assert out["cfg"]["eq_tol"] == 1e-8
    assert out["cfg"]["rng_seed"] == 3


# every subcommand with the input flags it takes; {t} and {gens} are files
SUBCOMMAND_INPUTS = {
    "gen": {"generators": "{gens}"},
    "commutant": {"algebra": "diag:2", "ambient": "full:2"},
    "bicommutant": {"algebra": "diag:2", "ambient": "full:2"},
    "normal": {"algebra": "diag:2", "ambient": "full:2"},
    "center": {"algebra": "full:2"},
    "wedderburn": {"algebra": "diag:2"},
    "expect": {"t": "{t}", "algebra": "diag:2"},
    "dist": {"t": "{t}", "space": "scalars:2"},
    "dn": {"t": "{t}", "algebra": "scalars:2", "ambient": "full:2"},
    "kn": {"algebra": "diag:2", "ambient": "full:2"},
    "gallery": {},
}


def test_every_subcommand_is_covered():
    assert set(COMMANDS) == set(SUBCOMMAND_INPUTS) | {"suite"}


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_INPUTS))
def test_envelope_echoes_exactly_the_input_flags(capsys, tmp_path, name):
    files = {
        "{t}": write_json(tmp_path / "t.json", matrix_to_json(np.diag([1.0, 2.0]))),
        "{gens}": write_json(tmp_path / "g.json", [matrix_to_json(np.diag([1.0, 2.0]))]),
    }
    inputs = {flag: files.get(v, v) for flag, v in SUBCOMMAND_INPUTS[name].items()}
    extra = {"kn": ["--samples", "3"], "gallery": ["--items", "corner-traceless-4x4"]}
    argv = [name] + [x for flag, v in inputs.items() for x in (f"--{flag}", v)]
    code, out = run_cli(capsys, *argv, *extra.get(name, []))
    assert code == 0
    assert set(out) == {"command", "cfg", "inputs", "result"}
    assert out["command"] == name
    assert out["inputs"] == inputs
    assert out["cfg"]["rng_seed"] == 0


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_subcommand_help_exits_zero(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: commutant {name} ")
