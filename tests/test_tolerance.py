"""The tolerance policy: each named bound's value, `require`, and one home for the policy."""

import re
from pathlib import Path

import numpy as np
import pytest

import staralg as sa
from staralg.linalg import (
    certificate_bound,
    membership_bound,
    relative_bound,
    require,
    require_each,
    sampled_identity_bound,
)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_named_bounds_keep_their_values(tol):
    exact = dict(rel=1e-15, abs=0.0)
    assert certificate_bound(tol) == pytest.approx(1e3 * tol, **exact)
    assert membership_bound(tol) == pytest.approx(np.sqrt(tol), **exact)
    assert relative_bound(tol, 0.5) == pytest.approx(tol, **exact)
    assert relative_bound(tol, 40.0) == pytest.approx(40.0 * tol, **exact)
    assert sampled_identity_bound(tol) == pytest.approx(100.0 * tol, **exact)


def test_validate_bound_is_relative_to_the_product_size():
    # e*e = 3e: products of two structure constants are 9, so the bound is 9 * tol.
    # A star of 1 + d gives an involution defect of about 3d.
    tol = 1e-9
    c = np.full((1, 1, 1), 3.0, dtype=complex)
    for d, passed in ((2 * tol, True), (4 * tol, False)):
        report = sa.validate(sa.StarAlgebra(c, np.array([[1.0 + d]])), tol)
        assert report.involution_defect == pytest.approx(3 * d, rel=1e-3)
        assert report.passed is passed


def test_validate_fails_without_raising_on_overflow():
    # 1e154: the size bound is finite but the associativity sums overflow to a NaN defect;
    # 1e200: the size itself overflows
    for value in (1e154, 1e200):
        report = sa.validate(sa.StarAlgebra(np.full((2, 2, 2), value, dtype=complex), np.eye(2)))
        assert report.passed is False
    # associative, but the sums overflow only for i >= 1: a NaN after a finite defect still fails
    late = np.full((3, 3, 3), 1e154, dtype=complex)
    late[0] = late[:, 0] = 0.0
    report = sa.validate(sa.StarAlgebra(late, np.eye(3)))
    assert np.isnan(report.associativity_defect) and report.passed is False
    for bad in ({"mul": np.full((1, 1, 1), np.nan)}, {"star": np.array([[np.inf]])},
                {"unit": np.array([np.nan])}):
        args = {"mul": np.ones((1, 1, 1)), "star": np.eye(1)} | bad
        with pytest.raises(sa.MalformedInput):
            sa.StarAlgebra(**args)


def test_require_each_reports_the_worst_offender():
    bounds = np.array([1.0, 1.0, 10.0])
    require_each(np.array([0.5, 1.0, 10.0]), bounds, sa.MalformedInput, "all within")
    with pytest.raises(sa.MalformedInput, match=r"\(residual 3\.000e\+00\)"):
        require_each(np.array([0.5, 3.0, 11.0]), bounds, sa.MalformedInput, "two offenders")
    with pytest.raises(sa.MalformedInput, match="nan"):
        require_each(np.array([0.5, np.nan, 11.0]), bounds, sa.MalformedInput, "a NaN offends")


def test_require_raises_the_given_error_with_the_residual():
    require(1e-7, 1e-6, sa.DecompositionFailed, "fine")
    require(1e-6, 1e-6, sa.DecompositionFailed, "on the bound passes")
    with pytest.raises(sa.InternalInconsistency, match=r"atoms drift \(residual 2\.500e-05\)"):
        require(2.5e-5, 1e-6, sa.InternalInconsistency, "atoms drift")
    with pytest.raises(sa.MalformedInput):
        require(float("nan"), 1e-6, sa.MalformedInput, "a NaN residual certifies nothing")


# KAPPA, sqrt(tol), a number times tol, or a scientific literal used as a factor
_POLICY_LEAK = re.compile(
    r"KAPPA|sqrt\(\s*tol\s*\)|\btol\s*\*\s*[\d.]|[\d.]\s*\*\s*-?tol\b"
    r"|\d[eE]-?\d+\s*\*|\*\s*\d+(\.\d*)?[eE]-?\d"
)


def test_tolerance_policy_lives_only_in_linalg():
    leaks = []
    for path in sorted(Path(sa.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _POLICY_LEAK.search(line):
                leaks.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not leaks, "tolerance bounds outside linalg:\n" + "\n".join(leaks)
