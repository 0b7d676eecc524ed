"""Annihilators, projection lattice operations, Rickart/Baer checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staralg as sa
from staralg.core import _coeffs_json
from staralg.instances import nilpotent_mutant, semisimple_instance, swap_mutant
from staralg.linalg import certificate_bound, nullspace
from staralg.rickart import CheckReport, orthogonal_family


@pytest.fixture
def m2():
    return sa.matrix_algebra(2)


def _as_matrix(a):
    return a.coeffs.reshape(2, 2)


def test_annihilator_of_e11(m2):
    # [DERIVED] right annihilator of E_11 in M_2 is span{E_21, E_22} = E_22 M_2
    result = sa.annihilator([m2.element([1, 0, 0, 0])])
    assert result.dim == 2
    assert result.is_principal_projection_ideal
    assert np.allclose(_as_matrix(result.generator), [[0, 0], [0, 1]])
    for x in result.subspace_basis:
        m = _as_matrix(x)
        assert np.allclose(m[0], 0)  # first row zero <=> E_11 x = 0


def test_annihilator_left_side(m2):
    # [DERIVED] the left annihilator {x : x E_11 = 0} is M_2 E_22 = span{E_12, E_22};
    # it is ann_r({E_11*})*, the involution of a right annihilator
    e11 = m2.element([1, 0, 0, 0])
    result = sa.annihilator([e11.star()])
    left = [x.star() for x in result.subspace_basis]
    assert len(left) == 2
    for x in left:
        assert (x * e11).norm() < 1e-12
        assert np.allclose(_as_matrix(x)[:, 0], 0)  # first column zero <=> x E_11 = 0
    assert np.allclose(_as_matrix(result.generator.star()), [[0, 0], [0, 1]])  # M_2 E_22 = M_2 f*


def test_annihilator_of_invertible_is_zero(m2):
    one = m2.element([1, 0, 0, 1])
    result = sa.annihilator([one])
    assert result.dim == 0
    assert result.generator.norm() < 1e-12


def test_annihilator_of_whole_set(m2):
    # annihilator of {E_11, E_21} is still E_22 M_2; of the basis it is 0
    result = sa.annihilator([m2.basis_element(i) for i in range(4)])
    assert result.dim == 0


def test_projection_generator_of_corner_ideal(m2):
    # [DERIVED] E_22 M_2 = span{E_21, E_22} has generator E_22
    basis = [m2.element([0, 0, 1, 0]), m2.element([0, 0, 0, 1])]
    f = sa.projection_generator(basis)
    assert np.allclose(_as_matrix(f), [[0, 0], [0, 1]])


def test_projection_generator_of_row_space():
    # [DERIVED] the right ideal spanned by [[1,0],[1,0]] and [[0,1],[0,1]]
    # has generator (1/2)[[1,1],[1,1]]
    m2 = sa.matrix_algebra(2)
    basis = [m2.element([1, 0, 1, 0]), m2.element([0, 1, 0, 1])]
    f = sa.projection_generator(basis)
    assert np.allclose(_as_matrix(f), 0.5 * np.array([[1, 1], [1, 1]]))


def test_projection_generator_rejects_non_ideal(m2):
    with pytest.raises(sa.NotARightIdeal):
        sa.projection_generator([m2.element([0, 1, 0, 0])])  # span{E_12} is not a right ideal


def test_join_meet_diagonal():
    alg = sa.diagonal_algebra(3)
    e = alg.element([1, 1, 0])
    f = alg.element([0, 1, 1])
    assert np.allclose(sa.join(e, f).coeffs, [1, 1, 1])
    assert np.allclose(sa.meet(e, f).coeffs, [0, 1, 0])


def test_join_meet_generic_projections(m2):
    # two rank-one projections in generic position: join = 1, meet = 0
    e = m2.element([1, 0, 0, 0])
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    f = m2.element(np.outer(v, v.conj()).reshape(-1))
    assert np.allclose(_as_matrix(sa.join(e, f)), np.eye(2))
    assert sa.meet(e, f).norm() < 1e-8


def test_proj_leq(m2):
    e = m2.element([1, 0, 0, 0])
    one = m2.element([1, 0, 0, 1])
    assert sa.proj_leq(e, one)
    assert not sa.proj_leq(one, e)
    assert sa.proj_leq(e, e)


def test_check_weakly_rickart_passes_on_matrix_algebra(m2):
    report = sa.check_weakly_rickart(m2)
    assert report.passed
    assert report.worst_residual < 1e-9


def test_check_weakly_rickart_fails_on_swap_algebra():
    report = sa.check_weakly_rickart(swap_mutant(1))
    assert not report.passed
    assert report.witness is not None


def _weakly_rickart_loop(algebra, tol=sa.DEFAULT_TOL, seed=0):
    """The weakly-Rickart pass with one right_projection and one kernel vector at a time."""
    rng = np.random.default_rng(seed)
    bound = certificate_bound(tol)
    worst = 0.0
    tested = algebra.basis() + [sa.random_element(algebra, rng) for _ in range(8)]
    for a in tested:
        if a.norm() <= tol:
            continue
        try:
            e = sa.right_projection(a, tol)
        except sa.DecompositionFailed as exc:
            return CheckReport("weakly_rickart", False, float("inf"), seed,
                               witness={"element": _coeffs_json(a.coeffs), "reason": str(exc)})
        res1 = (a * e - a).norm() / max(1.0, a.norm())
        worst = max(worst, res1)
        kernel = nullspace(a.lmat(), tol)
        for i in range(kernel.shape[1]):
            res2 = float(np.linalg.norm(e.lmat() @ kernel[:, i]))
            worst = max(worst, res2)
            if res2 > bound:
                return CheckReport("weakly_rickart", False, res2, seed,
                                   witness={"element": _coeffs_json(a.coeffs),
                                            "kernel_vector": _coeffs_json(kernel[:, i])})
        if res1 > bound:
            return CheckReport("weakly_rickart", False, res1, seed, witness={"element": _coeffs_json(a.coeffs)})
    return CheckReport("weakly_rickart", True, worst, seed, details={"tested": len(tested)})


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda k=k: swap_mutant(k), id=f"swap_mutant({k})") for k in (1, 2, 3)),
    *(pytest.param(lambda k=k: nilpotent_mutant(k), id=f"nilpotent_mutant({k})") for k in range(4)),
    pytest.param(lambda: sa.matrix_algebra(3), id="M3"),
])
def test_weakly_rickart_pass_matches_its_loop(make):
    """The stacked pass reports what one right projection at a time reports: the same first failure."""
    got = sa.check_weakly_rickart(make()).to_dict()
    ref = _weakly_rickart_loop(make()).to_dict()
    assert got.pop("worst_residual") == pytest.approx(ref.pop("worst_residual"), rel=1e-12)
    assert got == ref


def test_check_baer_matrix_algebra(m2):
    report = sa.check_baer(m2)
    assert report.passed
    assert report.details["generator_failures"] == 0


def test_check_baer_fails_without_unit():
    report = sa.check_baer(sa.nilpotent_line())
    assert not report.passed
    assert report.witness["reason"] == "no unit"


def test_check_baer_fails_on_unitized_nilpotent():
    report = sa.check_baer(sa.unitized_nilpotent())
    assert not report.passed


def test_check_baer_scrambled_semisimple():
    rng = np.random.default_rng(8)
    alg = semisimple_instance([2, 2], 1, rng)
    report = sa.check_baer(alg, seed=1)
    assert report.passed


@pytest.mark.parametrize("make", [
    lambda: sa.matrix_algebra(3),
    lambda: sa.build_group_algebra(sa.symmetric_group_3()),
    lambda: semisimple_instance([2, 2], 1, np.random.default_rng(1)),
], ids=["M3", "C[S3]", "scrambled [2,2]+1"])
def test_a_basis_singleton_annihilator_is_generated_by_one_minus_its_rp(make):
    """What the Baer guard no longer samples: ann_r({e_i}) = (1 - RP(e_i))A, as the weakly-Rickart pass proves."""
    alg = make()
    assert sa.check_weakly_rickart(alg).passed
    one = alg.one()
    for e in alg.basis():
        ann = sa.annihilator([e])
        assert ann.is_principal_projection_ideal
        assert (ann.generator - (one - sa.right_projection(e))).norm() <= 1e-8


def test_orthogonal_family_needs_a_unit():
    with pytest.raises(sa.MalformedInput, match="algebra has no unit"):
        orthogonal_family(sa.nilpotent_line())


def test_orthogonal_family_bounded_by_dim(m2):
    family = orthogonal_family(m2, seed=0)
    assert len(family) <= m2.dim
    for i, p in enumerate(family):
        assert sa.is_projection(p)
        for q in family[i + 1:]:
            assert (p * q).norm() < 1e-7


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_join_is_lub_random(seed):
    alg = sa.matrix_algebra(2)
    rng = np.random.default_rng(seed)
    e = sa.right_projection(sa.random_element(alg, rng))
    f = sa.right_projection(sa.random_element(alg, rng))
    g = sa.join(e, f)
    assert sa.proj_leq(e, g) and sa.proj_leq(f, g)
    m = sa.meet(e, f)
    assert sa.proj_leq(m, e) and sa.proj_leq(m, f)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_annihilator_kernel_is_exact(seed):
    alg = sa.matrix_algebra(2)
    a = sa.random_element(alg, np.random.default_rng(seed))
    result = sa.annihilator([a])
    for x in result.subspace_basis:
        assert (a * x).norm() < 1e-9 * max(1.0, a.norm())
    if result.generator is not None and result.dim:
        g = result.generator
        assert (a * g).norm() < 1e-7 * max(1.0, a.norm())
