"""Data model, arithmetic, validation, unitization, spectra."""

import inspect
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staralg as sa
from staralg import core, groups, spectral, stepfns, structure
from staralg.core import algebra_from_json, algebra_to_json
from staralg.instances import swap_mutant


@pytest.fixture
def m2():
    return sa.matrix_algebra(2)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_element_rejects_non_finite_coefficients(m2, value):
    with pytest.raises(sa.MalformedInput, match="coefficients must be finite"):
        m2.element([1.0, value, 0.0, 0.0])


def test_validate_matrix_algebra(m2):
    report = sa.validate(m2)
    assert report.passed
    assert report.associativity_defect == 0.0
    assert report.involution_defect == 0.0
    assert list(report.to_dict()) == [
        "dim", "associativity_defect", "involution_defect", "unit_defect", "tol", "passed"]


def test_public_names_carry_only_used_options():
    """Each option has a caller that sets it; a second spelling of a constructor is gone."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(sa.annihilator) == ["elements", "tol"]
    assert params(sa.check_weakly_rickart) == ["algebra", "tol", "seed"]
    assert params(sa.check_baer) == ["algebra", "tol", "seed"]
    assert params(sa.sf_indicator) == ["backend", "subset"]
    assert params(swap_mutant) == ["pairs"]
    for name in ("swap_algebra", "sf_sub"):
        assert not hasattr(sa, name)
    assert not hasattr(groups, "GroupAlgebraBuild")
    assert isinstance(sa.build_group_algebra(sa.cyclic_group(2)), sa.StarAlgebra)
    assert [f.name for f in fields(sa.AnnihilatorResult)] == [
        "subspace_basis", "generator", "is_principal_projection_ideal"]
    assert [f.name for f in fields(sa.CentralDecomposition)] == ["atoms", "block_dims"]
    assert params(sa.from_matrix_basis) == ["mats"]
    assert params(sa.coeffs_to_step) == ["backend", "coeffs"]
    for name in ("UltimatelyPeriodicSets", "UPSet", "_point_count"):
        assert not hasattr(sa, name) and not hasattr(stepfns, name)
    assert not hasattr(sa.Element, "is_zero")
    for name in ("unital_hull", "UnitalHull"):
        assert not hasattr(sa, name) and not hasattr(core, name)
    for name in ("SubAlgebra", "subalgebra_from_span", "_is_commutative", "_compress"):
        assert not hasattr(structure, name)
    assert params(sa.block_star_isomorphism) == ["atom", "tol", "seed"]
    assert params(structure.matrix_unit_residual) == ["atom", "units"]
    for name in ("_raised", "_right_projections"):
        assert not hasattr(spectral, name)
    assert inspect.isgeneratorfunction(spectral.right_projections)


def test_validate_rejects_broken_associativity():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 1] = 1.0
    c[1, 1, 0] = 1.0
    c[0, 1, 0] = 1.0
    alg = sa.StarAlgebra(c, np.eye(2, dtype=complex))
    assert not sa.validate(alg).passed


def test_validate_rejects_non_involutive_star(m2):
    s = np.eye(4, dtype=complex)
    s[0, 0] = 2.0  # star of star is then 4x, not x
    alg = sa.StarAlgebra(m2.mul, s)
    assert not sa.validate(alg).passed


def test_arithmetic_matches_matrices(m2):
    # elements of M_2 in the E_pq basis multiply like matrices
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = m2.element(x.reshape(-1))
        b = m2.element(y.reshape(-1))
        assert np.allclose((a * b).coeffs, (x @ y).reshape(-1))
        assert np.allclose((a + b).coeffs, (x + y).reshape(-1))
        assert np.allclose(a.star().coeffs, x.conj().T.reshape(-1))


def test_from_matrix_basis_rejects_open_spans():
    def unit(p, q):
        m = np.zeros((2, 2))
        m[p, q] = 1.0
        return m

    with pytest.raises(sa.MalformedInput):  # E12 E21 = E11 leaves the span
        sa.from_matrix_basis([unit(0, 1), unit(1, 0)])
    with pytest.raises(sa.MalformedInput):  # closed under products, but E12* = E21 leaves it
        sa.from_matrix_basis([unit(0, 0), unit(0, 1)])
    alg = sa.from_matrix_basis([unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)])
    assert np.allclose(alg.mul, sa.matrix_algebra(2).mul) and np.allclose(alg.star, sa.matrix_algebra(2).star)


def test_parent_mismatch_raises(m2):
    other = sa.matrix_algebra(2)
    with pytest.raises(sa.ParentMismatch):
        m2.element([1, 0, 0, 0]) * other.element([1, 0, 0, 0])


def test_unit_detection(m2):
    assert m2.is_unital()
    assert np.allclose(m2.unit_vector(), [1, 0, 0, 1])
    assert not sa.nilpotent_line().is_unital()


def test_unitize_adjoins_a_unit():
    alg = sa.unitize(sa.nilpotent_line())
    assert alg.dim == 2
    assert alg.is_unital()
    one = alg.element(alg.unit_vector())
    x = alg.basis_element(1)
    assert ((one * x) - x).norm() < 1e-14
    assert ((x * x)).norm() < 1e-14  # x stays nilpotent


def test_spectrum_symmetric_off_diagonal(m2):
    # [DERIVED] eigenvalues of [[0,1],[1,0]] are -1, 1
    sp = sa.spectrum(m2.element([0, 1, 1, 0]))
    assert sorted(round(p.real, 9) for p in sp.points) == [-1.0, 1.0]
    assert not sp.includes_forced_zero


def test_spectrum_nonunital_forces_zero():
    # in a non-unital algebra the spectrum always contains 0
    sp = sa.spectrum(sa.nilpotent_line().element([1.0]))
    assert sp.includes_forced_zero
    assert any(abs(p) < 1e-12 for p in sp.points)


def test_spectrum_of_diagonal_element():
    alg = sa.diagonal_algebra(3)
    sp = sa.spectrum(alg.element([2.0, 3.0, 2.0]))
    assert sorted(round(p.real, 9) for p in sp.points) == [2.0, 3.0]


def test_json_round_trip(m2):
    data = algebra_to_json(m2)
    back = algebra_from_json(json.loads(json.dumps(data)))
    assert np.allclose(back.mul, m2.mul)
    assert np.allclose(back.star, m2.star)
    assert back.is_unital()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_star_is_involutive_on_random_elements(seed):
    alg = sa.matrix_algebra(2)
    a = sa.random_element(alg, np.random.default_rng(seed))
    assert (a.star().star() - a).norm() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_star_antimultiplicative(seed):
    alg = sa.matrix_algebra(2)
    rng = np.random.default_rng(seed)
    a, b = sa.random_element(alg, rng), sa.random_element(alg, rng)
    assert ((a * b).star() - b.star() * a.star()).norm() < 1e-10
