"""Command-line interface: exit codes, determinism, JSON output."""

import json

import pytest
from test_structure import _badly_scaled

import staralg as sa
from staralg import cli
from staralg.cli import main
from staralg.core import algebra_to_json
from staralg.groups import group_to_json
from staralg.instances import nilpotent_mutant, swap_mutant


@pytest.fixture
def m2_file(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(algebra_to_json(sa.matrix_algebra(2))))
    return str(path)


def test_analyze_exit_zero_and_json(m2_file, capsys):
    assert main(["analyze", m2_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["proper"] and out["baer"]
    assert out["blocks"] == [2] and out["abelian_dim"] == 0


def test_missing_file_exit_one(capsys):
    assert main(["analyze", "/no/such/file.json"]) == 1


def test_malformed_json_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 1


def test_validate_failure_exit_two(tmp_path, capsys):
    # multiplication that is not associative
    data = {
        "dim": 2,
        "mul": [[0, 0, 1, 1.0, 0.0], [1, 1, 0, 1.0, 0.0], [0, 1, 0, 1.0, 0.0]],
        "star": [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]],
    }
    p = tmp_path / "bad_alg.json"
    p.write_text(json.dumps(data))
    assert main(["validate", str(p)]) == 2


def test_analyze_non_proper_still_coherent(tmp_path, capsys):
    p = tmp_path / "swap.json"
    p.write_text(json.dumps(algebra_to_json(swap_mutant(1))))
    assert main(["analyze", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert not out["proper"] and not out["baer"]
    assert out["witness"] is not None


def test_deterministic_output(m2_file, capsys):
    main(["--seed", "3", "analyze", m2_file])
    first = capsys.readouterr().out
    main(["--seed", "3", "analyze", m2_file])
    second = capsys.readouterr().out
    assert first == second


def test_spectral_command(m2_file, capsys):
    assert main(["spectral", m2_file, "--element", "0,0 1,0 1,0 0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    lams = sorted(round(t["eigenvalue"][0], 9) for t in out["terms"])
    assert lams == [-1.0, 1.0]


def test_spectral_wrong_length(m2_file, capsys):
    assert main(["spectral", m2_file, "--element", "1,0"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_spectral_rejects_non_finite_coefficients(m2_file, capsys, value):
    assert main(["spectral", m2_file, "--element", f"1,0 {value},0 0,0 0,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "coefficients must be finite" in err


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_spectral_reports_an_overflow_as_ill_conditioned(m2_file, capsys):
    # 1e200 * 1 is normal; only its products b*b and bb* overflow
    assert main(["spectral", m2_file, "--element", "1e200,0 0,0 0,0 1e200,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflow" in err and "not normal" not in err


_NAN_STAR = {"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, float("nan"), 0.0]]}


@pytest.mark.parametrize("payload, argv", [
    (None, ["spectral", "--element", "1"]),
    (None, ["spectral", "--element", "x,y"]),
    (None, ["spectral", "--element", "1,0 nan,0 0,0 0,0"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0]], "unit": [["a", "b"]]},
     ["validate"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0]], "labels": 5},
     ["validate"]),
    ({"type": "cayley"}, ["group"]),
    ({"type": "cayley", "table": [[0, 1], [1]]}, ["group"]),
    ({"dim": 1, "mul": [[-1, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0]]}, ["validate"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, -1, 1.0, 0.0]]}, ["validate"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0]], "labels": ["a", "b", "c"]},
     ["validate"]),
    (_NAN_STAR, ["validate"]),
    (_NAN_STAR, ["analyze"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0]], "unit": [[float("inf"), 0.0]]},
     ["validate"]),
    ({"dim": 1.5, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0]]}, ["analyze"]),
    ({"dim": True, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0]]}, ["analyze"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0], [0, 0, 0, 2.0, 0.0]], "star": [[0, 0, 1.0, 0.0]]}, ["validate"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0], [0, 0, 1.0, 0.0]]}, ["validate"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0]], "labels": "x"}, ["validate"]),
    ({"dim": 2, "mul": [[True, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]]}, ["validate"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, True, False]]}, ["validate"]),
    ({"dim": 1, "mul": [[0, 0, 0, 1.0, 0.0]], "star": [[0, 0, 1.0, 0.0]], "unit": [[True, False]]}, ["validate"]),
    ({"type": "perm", "degree": 3, "generators": [[1.9, 0, 2]]}, ["group"]),
    ({"type": "perm", "degree": 3.7, "generators": [[1, 0, 2]]}, ["group"]),
    ({"type": "perm", "degree": 3, "generators": [[1, 0, 2]], "cap": 2.5}, ["group"]),
    ({"type": "perm", "degree": True, "generators": [[0]]}, ["group"]),
    ({"type": "perm", "degree": 3, "generators": [[True, False, 2]]}, ["group"]),
    ({"type": "cayley", "table": [[0, True], [True, 0]]}, ["group"]),
    ({"type": "perm", "degree": -3, "generators": [[]]}, ["group"]),
], ids=["element-arity", "element-number", "element-nan", "unit-number", "labels-list", "no-table",
        "ragged-table", "mul-index-negative", "star-index-negative", "labels-length",
        "star-nan-validate", "star-nan-analyze", "unit-inf", "dim-float", "dim-bool",
        "mul-duplicate", "star-duplicate", "labels-string", "mul-index-bool", "star-number-bool",
        "unit-bool", "perm-entry-float", "perm-degree-float", "perm-cap-float", "perm-degree-bool",
        "perm-entry-bool", "cayley-bool", "perm-degree-negative"])
def test_malformed_input_is_an_error_line(tmp_path, capsys, payload, argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload or algebra_to_json(sa.matrix_algebra(2))))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_overflowing_constants_fail_validation(tmp_path, capsys, command):
    # products of 1e200 overflow: validation fails with exit 2, never a traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 1, "mul": [[0, 0, 0, 1e200, 0.0]], "star": [[0, 0, 1.0, 0.0]]}))
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if command == "validate":
        assert json.loads(out)["passed"] is False


def test_a_dim_too_large_to_allocate_is_an_error_line(tmp_path, capsys):
    """A 40-byte file asks for a mul tensor of 14 PiB, which numpy refuses outright."""
    path = tmp_path / "huge_dim.json"
    path.write_text(json.dumps({"dim": 100000, "mul": [], "star": []}))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


def test_a_memory_error_without_a_message_is_named(tmp_path, monkeypatch, capsys):
    """``MemoryError()`` has an empty message, so the error line names the exception instead."""
    def exhausted(data):
        raise MemoryError()

    monkeypatch.setattr(cli, "group_from_json", exhausted)
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(group_to_json(sa.symmetric_group_3())))
    assert main(["group", str(path)]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_check_properties(m2_file, capsys):
    for prop in ("rp", "baer", "regular", "sqrt"):
        assert main(["check", m2_file, "--property", prop]) == 0, prop
        out = json.loads(capsys.readouterr().out)
        assert out["pass"]


@pytest.mark.parametrize("prop", ["regular", "sqrt"])
@pytest.mark.parametrize("make", [lambda: swap_mutant(1), lambda: nilpotent_mutant(0), lambda: nilpotent_mutant(1)],
                         ids=["swap", "nilpotent", "nilpotent_mutant(1)"])
def test_check_of_a_sampled_identity_fails_with_exit_two(tmp_path, capsys, make, prop):
    """A sample whose quasi-inverse or square root cannot be built ends the check as a FAIL, as ``rp`` does."""
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_to_json(make())))
    assert main(["check", str(path), "--property", prop]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False and out["worst_residual"] == float("inf")
    assert set(out["witness"]) == {"element", "reason"} and "certificates fail" in out["witness"]["reason"]
    assert main(["check", str(path), "--property", "rp"]) == 2


def _scaled_m2():
    m2 = sa.matrix_algebra(2)
    return sa.StarAlgebra(m2.mul * 1e6, m2.star)


@pytest.mark.parametrize("make, prop", [
    (_scaled_m2, "regular"), (_scaled_m2, "sqrt"), (lambda: _badly_scaled(1e3, 0), "regular"),
], ids=["M2x1e6-regular", "M2x1e6-sqrt", "badly_scaled(1e3)-regular"])
def test_check_of_a_sampled_identity_on_a_cstar_algebra_is_ill_conditioned(tmp_path, capsys, make, prop):
    """On a proper algebra, a C*-algebra, every element is regular and every a*a has a root: a sample whose
    construction or identity misses its certificate is a conditioning failure (exit 1), not a FAIL (exit 2)."""
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_to_json(make())))
    assert main(["check", str(path), "--property", prop]) == 1
    captured = capsys.readouterr()
    assert not captured.out and captured.err.startswith("error: the ") and "on a C*-algebra" in captured.err


def test_a_sampled_identity_over_its_bound_on_a_cstar_algebra_is_ill_conditioned(m2_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_identity_residual", lambda prop, a, tol: 1.0)
    assert main(["check", m2_file, "--property", "regular"]) == 1
    assert "identity misses its bound on a C*-algebra (residual 1.000e+00)" in capsys.readouterr().err


def test_check_of_a_sampled_identity_keeps_exit_one_for_other_errors(m2_file, monkeypatch, capsys):
    def ill(a, tol):
        raise sa.IllConditioned("no certificate at this conditioning", 1.0)

    monkeypatch.setattr(cli, "quasi_inverse", ill)
    assert main(["check", m2_file, "--property", "regular"]) == 1
    assert "no certificate" in capsys.readouterr().err


def test_check_bound_follows_tol(m2_file, capsys):
    for tol in (1e-9, 1e-6):
        for prop in ("regular", "sqrt"):
            assert main(["--tol", str(tol), "check", m2_file, "--property", prop]) == 0, prop
            out = json.loads(capsys.readouterr().out)
            assert out["pass"]
            assert out["details"]["bound"] == pytest.approx(100 * tol)


def test_group_command(tmp_path, capsys):
    p = tmp_path / "s3.json"
    p.write_text(json.dumps(group_to_json(sa.symmetric_group_3())))
    assert main(["group", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"] == [2] and out["abelian_dim"] == 2


def test_export_commutative_round_trip(tmp_path, capsys):
    out_path = tmp_path / "comm.json"
    assert main(["export-commutative", "3", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["abelian_dim"] == 3 and out["blocks"] == []


def test_bad_tol_exit_one(tmp_path, m2_file, capsys):
    # a non-associative algebra must not pass validation at an infinite tol
    bad = tmp_path / "bad_alg.json"
    bad.write_text(json.dumps({"dim": 2, "mul": [[0, 0, 1, 1.0, 0.0], [1, 1, 0, 1.0, 0.0]],
                               "star": [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]]}))
    for argv in (["--tol", "-1", "analyze", m2_file], ["--tol", "inf", "validate", str(bad)],
                 ["--tol", "nan", "validate", m2_file], ["--seed", "-1", "analyze", m2_file]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_text_output(m2_file, capsys):
    assert main(["--output", "text", "analyze", m2_file]) == 0
    out = capsys.readouterr().out
    assert "proper=True" in out
