"""Spectral decompositions, RP/LP, quasi-inverse, positive sqrt, EP witness, C*-norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staralg as sa
from staralg.instances import semisimple_instance


@pytest.fixture
def m2():
    return sa.matrix_algebra(2)


def _as_matrix(a):
    return a.coeffs.reshape(2, 2)


def test_spectral_decompose_symmetric(m2):
    # [DERIVED] [[0,1],[1,0]] = (+1)*(1/2)[[1,1],[1,1]] + (-1)*(1/2)[[1,-1],[-1,1]]
    dec = sa.spectral_decompose(m2.element([0, 1, 1, 0]))
    terms = sorted(dec.terms, key=lambda t: t[0].real)
    assert np.allclose(terms[0][0], -1.0)
    assert np.allclose(_as_matrix(terms[0][1]), 0.5 * np.array([[1, -1], [-1, 1]]))
    assert np.allclose(terms[1][0], 1.0)
    assert np.allclose(_as_matrix(terms[1][1]), 0.5 * np.array([[1, 1], [1, 1]]))


def test_spectral_decompose_omits_zero(m2):
    dec = sa.spectral_decompose(m2.element([1, 0, 0, 0]))  # E_11, eigenvalues {0, 1}
    assert len(dec.terms) == 1
    assert np.allclose(dec.terms[0][0], 1.0)


def test_spectral_decompose_zero_element(m2):
    assert sa.spectral_decompose(m2.zero()).terms == ()


def test_spectral_decompose_rejects_nonnormal(m2):
    with pytest.raises(sa.DecompositionFailed):
        sa.spectral_decompose(m2.element([0, 1, 0, 0]))  # E_12 is not normal


def test_spectral_decompose_fails_on_swap_algebra():
    # the swap involution is not proper; (1,0) is "selfadjoint-able" but has
    # no orthogonal spectral resolution
    alg = sa.swap_algebra()
    a = alg.element([1.0, 1.0j]) + alg.element([1.0, 1.0j]).star()
    with pytest.raises(sa.DecompositionFailed):
        dec = sa.spectral_decompose(a)
        # if certification were skipped the projections would not be selfadjoint
        for _, p in dec.terms:
            assert (p - p.star()).norm() < 1e-6


def test_right_projection_rank_one(m2):
    # [DERIVED] RP([[1,1],[0,0]]) = (1/2)[[1,1],[1,1]]
    e = sa.right_projection(m2.element([1, 1, 0, 0]))
    assert np.allclose(_as_matrix(e), 0.5 * np.array([[1, 1], [1, 1]]))


def test_left_projection_rank_one(m2):
    # [DERIVED] LP([[1,1],[0,0]]) = E_11
    f = sa.left_projection(m2.element([1, 1, 0, 0]))
    assert np.allclose(_as_matrix(f), np.array([[1, 0], [0, 0]]))


def test_quasi_inverse_rank_one(m2):
    # [DERIVED] for a = [[1,1],[0,0]]: x = (1/2)[[1,0],[1,0]] satisfies axa=a, xax=x
    a = m2.element([1, 1, 0, 0])
    x = sa.quasi_inverse(a)
    assert np.allclose(_as_matrix(x), 0.5 * np.array([[1, 0], [1, 0]]))
    assert (a * x * a - a).norm() < 1e-10
    assert (x * a * x - x).norm() < 1e-10


def test_quasi_inverse_times_a_is_rp(m2):
    rng = np.random.default_rng(3)
    a = sa.random_element(m2, rng)
    x = sa.quasi_inverse(a)
    assert (x * a - sa.right_projection(a)).norm() < 1e-8


def test_positive_sqrt(m2):
    rng = np.random.default_rng(5)
    a = sa.random_element(m2, rng)
    x = a.star() * a
    y = sa.positive_sqrt(x)
    assert (y - y.star()).norm() < 1e-9
    assert (y * y - x).norm() < 1e-9 * max(1.0, x.norm())
    sp = sa.spectrum(y)
    assert all(p.real > -1e-9 and abs(p.imag) < 1e-9 for p in sp.points)


def test_positive_sqrt_below_the_zero_cutoff(m2):
    # every eigenvalue falls below the zero cut-off while the norm exceeds tol
    x = 0.9e-9 * m2.one()
    assert x.norm() > 1e-9 and sa.spectral_decompose(x).terms == ()
    y = sa.positive_sqrt(x)
    assert y.norm() == 0.0


def test_positive_sqrt_rejects_negative(m2):
    with pytest.raises(sa.NotPositive):
        sa.positive_sqrt(m2.element([-1, 0, 0, -1]))


def test_ep_witness(m2):
    rng = np.random.default_rng(11)
    a = sa.random_element(m2, rng)
    w = sa.ep_witness(a)
    e = sa.right_projection(a)
    assert (w - w.star()).norm() < 1e-8
    assert ((a.star() * a) * w * w - e).norm() < 1e-8


def test_ep_witness_zero_raises(m2):
    with pytest.raises(sa.DegenerateInput):
        sa.ep_witness(m2.zero())


def test_cstar_norm_matches_operator_norm(m2):
    # on M_2 in the matrix-unit basis the C*-norm is the spectral norm
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert sa.cstar_norm(m2.element(x.reshape(-1))) == pytest.approx(
            np.linalg.norm(x, 2), rel=1e-9
        )


def test_cstar_norm_basis_independent():
    # the same algebra in a scrambled basis gives the same norms
    rng = np.random.default_rng(4)
    alg = semisimple_instance([2], 1, rng)
    a = sa.random_element(alg, rng)
    # C*-identity on the computed norm
    assert sa.cstar_norm(a.star() * a) == pytest.approx(sa.cstar_norm(a) ** 2, rel=1e-8)


@pytest.mark.parametrize("make", [
    lambda: sa.matrix_algebra(3),
    sa.nilpotent_line,
    sa.swap_algebra,
    sa.unitized_nilpotent,
    lambda: semisimple_instance([3, 2], 1, np.random.default_rng(8)),
])
def test_gram_matrix_matches_per_pair_traces(make):
    """The trace form F and the Gram matrix built from it agree with one trace per pair."""
    from staralg.core import _cached, _trace_form
    from staralg.spectral import _gram_matrix

    alg = make()
    hull = sa.unital_hull(alg)
    lmats = [e.lmat() for e in hull.algebra.basis()]
    form = np.array([[np.trace(li @ lj) for lj in lmats] for li in lmats])
    left = [hull.embed(e).lmat() for e in alg.basis()]
    star_left = [hull.embed(e.star()).lmat() for e in alg.basis()]
    g = np.array([[np.trace(si @ lj) for lj in left] for si in star_left])
    g = 0.5 * (g + g.conj().T)
    scale = max(1.0, float(np.max(np.abs(form))))
    assert np.max(np.abs(_cached(alg, _trace_form, 1e-9) - form)) <= 1e-12 * scale
    assert np.max(np.abs(_cached(alg, _gram_matrix, 1e-9) - g)) <= 1e-12 * scale


def test_cstar_norm_rejects_improper():
    with pytest.raises(sa.NoCStarNorm):
        sa.cstar_norm(sa.swap_algebra().element([1.0, 0.0]))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rp_axioms_random(seed):
    alg = sa.matrix_algebra(2)
    a = sa.random_element(alg, np.random.default_rng(seed))
    e = sa.right_projection(a)
    assert (e - e.star()).norm() < 1e-8
    assert (e - e * e).norm() < 1e-8
    assert (a * e - a).norm() < 1e-8 * max(1.0, a.norm())


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cstar_identity_random(seed):
    alg = sa.matrix_algebra(2)
    a = sa.random_element(alg, np.random.default_rng(seed))
    assert sa.cstar_norm(a.star() * a) == pytest.approx(sa.cstar_norm(a) ** 2, rel=1e-7)
