"""Exact step functions over the subsets of a finite set, and the float bridge."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staralg as sa
from staralg.stepfns import (
    ExactComplex,
    FiniteSubsets,
    coeffs_to_step,
    export_finite_backend,
    sf_add,
    sf_annihilator,
    sf_constant,
    sf_equal,
    sf_indicator,
    sf_mul,
    sf_quasi_inverse,
    sf_rp,
    sf_scale,
    sf_spectral_decompose,
    sf_star,
    sf_sup_norm,
    sf_support,
    step_function,
    step_to_coeffs,
)


def test_exact_complex_arithmetic():
    a = ExactComplex(Fraction(1, 2), Fraction(1, 3))
    b = ExactComplex(Fraction(2), Fraction(-1))
    assert (a * b).re == Fraction(4, 3)
    assert (a * b).im == Fraction(1, 6)
    assert a.conj().im == Fraction(-1, 3)
    assert (a - a).is_zero()


def test_finite_backend_boolean_ops():
    b = FiniteSubsets(4)
    s = b.subset([0, 2])
    t = b.subset([2, 3])
    assert b.points(s & t) == [2]
    assert b.points(s | t) == [0, 2, 3]
    assert b.points(b.complement(s)) == [1, 3]
    assert s & b.complement(s) == 0
    assert s | b.complement(s) == b.universe


def test_step_function_validation():
    b = FiniteSubsets(3)
    with pytest.raises(sa.MalformedInput):
        step_function(b, [(b.subset([0, 1]), 1), (b.subset([1, 2]), 2)])  # overlap
    with pytest.raises(sa.MalformedInput):
        step_function(b, [(b.subset([0]), 1)])  # does not cover


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("nan")), complex(float("-inf"), 0.0)])
def test_non_finite_values_are_malformed_input(bad):
    b = FiniteSubsets(2)
    with pytest.raises(sa.MalformedInput, match="not a finite number"):
        coeffs_to_step(b, [bad, 1.0])
    with pytest.raises(sa.MalformedInput, match="not a finite number"):
        step_function(b, [(b.subset([0]), bad), (b.subset([1]), 1)])
    with pytest.raises(sa.MalformedInput, match="not a finite number"):
        sf_constant(b, bad)
    with pytest.raises(sa.MalformedInput, match="not a finite number"):
        sf_scale(bad, sf_constant(b, 1))


@pytest.mark.parametrize("small", [1e-13, 1e-13j, 1e-300 + 1e-300j])
def test_a_float_is_read_as_the_binary_rational_it_holds(small):
    """A complex float is not rounded to a nearby rational: a tiny value stays in the support."""
    b = FiniteSubsets(3)
    f = coeffs_to_step(b, [1, small, 0])
    assert f.value_on(b.subset([1])) == ExactComplex(Fraction(small.real), Fraction(small.imag))
    assert sf_equal(sf_rp(f), sf_indicator(b, b.subset([0, 1])))


def test_cell_order_does_not_change_the_function():
    """Values closer than a float can tell apart still give one canonical cell order."""
    b = FiniteSubsets(3)
    third = Fraction(1, 3)
    cells = [(b.subset([0]), third), (b.subset([1, 2]), third + Fraction(1, 10**30))]
    assert sf_equal(step_function(b, cells), step_function(b, cells[::-1]))


def test_step_function_canonical_merge():
    b = FiniteSubsets(4)
    f = step_function(b, [(b.subset([0]), 1), (b.subset([2]), 1), (b.subset([1, 3]), 0)])
    g = step_function(b, [(b.subset([0, 2]), 1), (b.subset([1]), 0), (b.subset([3]), 0)])
    assert sf_equal(f, g)


def test_pointwise_algebra():
    b = FiniteSubsets(3)
    f = step_function(b, [(b.subset([0, 1]), 2), (b.subset([2]), ExactComplex.of(1j))])
    g = sf_constant(b, 3)
    assert sf_equal(sf_mul(f, g), step_function(
        b, [(b.subset([0, 1]), 6), (b.subset([2]), ExactComplex.of(3j))]))
    h = sf_star(f)
    assert h.value_on(b.subset([2])).im == Fraction(-1)


def test_rp_and_quasi_inverse_exact():
    b = FiniteSubsets(4)
    f = step_function(b, [(b.subset([0, 1]), Fraction(3, 7)), (b.subset([2, 3]), 0)])
    e = sf_rp(f)
    assert sf_equal(e, sf_indicator(b, b.subset([0, 1])))
    x = sf_quasi_inverse(f)
    assert sf_equal(sf_mul(sf_mul(f, x), f), f)
    assert x.value_on(b.subset([0])).re == Fraction(7, 3)


def test_annihilator_exact():
    b = FiniteSubsets(5)
    f = sf_indicator(b, b.subset([0, 1]))
    g = sf_indicator(b, b.subset([1, 2]))
    ann = sf_annihilator([f, g])
    assert sf_equal(ann, sf_indicator(b, b.subset([3, 4])))


def test_spectral_decompose_exact():
    b = FiniteSubsets(4)
    f = step_function(b, [(b.subset([0]), 2), (b.subset([1, 2]), -1), (b.subset([3]), 0)])
    terms = sf_spectral_decompose(f)
    assert len(terms) == 2
    recon = sf_constant(b, 0)
    for lam, p in terms:
        recon = sf_add(recon, sf_scale(lam, p))
    assert sf_equal(recon, f)


def test_sup_norm():
    b = FiniteSubsets(2)
    f = step_function(b, [(b.subset([0]), ExactComplex.of(3 + 4j)), (b.subset([1]), 1)])
    assert sf_sup_norm(f) == 5.0


# -- bridge to structure constants --------------------------------------------

def test_export_finite_backend_analyzes_commutative():
    alg = export_finite_backend(FiniteSubsets(4))
    r = sa.analyze(alg)
    assert r.proper and r.baer
    assert r.block_sizes_nonabelian == [] and r.abelian_dim == 4


def test_bridge_round_trip():
    b = FiniteSubsets(3)
    f = step_function(b, [(b.subset([0]), 2), (b.subset([1, 2]), ExactComplex.of(1j))])
    back = coeffs_to_step(b, step_to_coeffs(f))
    assert sf_equal(back, f)


@pytest.mark.parametrize("coeffs", [[1, 2], [1, 2, 3, 4]], ids=["short", "long"])
def test_coeffs_to_step_needs_one_coefficient_per_point(coeffs):
    """Too few coefficients would leave points outside every cell, and sums on them would be lost."""
    with pytest.raises(sa.MalformedInput, match=f"{len(coeffs)} coefficients for a universe of 3 points"):
        coeffs_to_step(FiniteSubsets(3), coeffs)


def test_float_pipeline_matches_exact_rp():
    b = FiniteSubsets(4)
    alg = export_finite_backend(b)
    f = step_function(b, [(b.subset([0, 2]), Fraction(5, 3)), (b.subset([1, 3]), 0)])
    a = alg.element(step_to_coeffs(f))
    e = sa.right_projection(a)
    exact = step_to_coeffs(sf_rp(f))
    assert np.allclose(e.coeffs, exact, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_mul_commutes_property(n, data):
    b = FiniteSubsets(n)
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    vals = st.integers(min_value=-3, max_value=3)
    s = data.draw(masks)
    f = step_function(b, [(s, data.draw(vals)), (b.complement(s), data.draw(vals))])
    t = data.draw(masks)
    g = step_function(b, [(t, data.draw(vals)), (b.complement(t), data.draw(vals))])
    assert sf_equal(sf_mul(f, g), sf_mul(g, f))
    assert sf_equal(sf_star(sf_mul(f, g)), sf_mul(sf_star(g), sf_star(f)))


def test_the_oracle_imports_nothing_it_checks():
    """The oracle's answers come from exact arithmetic alone, never from the pipeline it checks."""
    tree = ast.parse(Path(sa.stepfns.__file__).read_text())
    local = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert local == {"errors", "instances"}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    assert not any(name.split(".")[0] == "staralg" for name in absolute)
