"""Annihilators, projection lattice operations, Rickart/Baer checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staralg as sa
from staralg.core import _coeffs_json
from staralg.instances import nilpotent_mutant, semisimple_instance, swap_mutant
from staralg.linalg import certificate_bound, colspace, membership_bound, nullspace, subspaces_equal
from staralg import rickart, spectral
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
    # no failure count: a failed guard raises InternalInconsistency
    assert report.details == {"witness_subsets": 6}


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


# flags and dims the annihilator gave on these cases when its generator was 1 - the join of the RPs:
# the dims of the cases in order, one digit each, and the indices of the cases without a projection generator
_ANNIHILATOR_PINS = {
    "M2": ("0200202222000222", []),
    "M3": ("336336333363363336336336333363336333666666666000666", []),
    "scrambled [2,2]+1": ("000000000000000000000000000000000000000000000000777", []),
    "swap_mutant(1)": ("011000", [1, 2]),
    "swap_mutant(2)": ("2222223333000", list(range(10))),
    "swap_mutant(3)": ("444444444444444555555000", list(range(21))),
    "nilpotent_mutant(0)": ("001000", [2]),
    "nilpotent_mutant(1)": ("101122000", [2, 4]),
    "nilpotent_mutant(2)": ("2112222333000", [3, 4, 7]),
    "nilpotent_mutant(3)": ("322233333334444000", [4, 5, 6, 11]),
    "unitized_nilpotent": ("001000", [2]),
}
_CSTAR = ("M2", "M3", "scrambled [2,2]+1")
_ANNIHILATOR_ALGEBRAS = {
    "M2": lambda: sa.matrix_algebra(2),
    "M3": lambda: sa.matrix_algebra(3),
    "scrambled [2,2]+1": lambda: semisimple_instance([2, 2], 1, np.random.default_rng(1)),
    **{f"swap_mutant({k})": (lambda k=k: swap_mutant(k)) for k in (1, 2, 3)},
    **{f"nilpotent_mutant({k})": (lambda k=k: nilpotent_mutant(k)) for k in range(4)},
    "unitized_nilpotent": sa.unitized_nilpotent,
}


def _annihilator_cases(alg, cstar):
    """Every basis pair, every basis singleton, sets of 1-3 random elements and, on a C*-algebra, sets of
    1-3 random elements times one spectral projection, whose annihilators are not {0}."""
    rng = np.random.default_rng(5)
    n = alg.dim
    cases = ([[alg.basis_element(i), alg.basis_element(j)] for i in range(n) for j in range(i + 1, n)]
             + [[e] for e in alg.basis()]
             + [[sa.random_element(alg, rng) for _ in range(k)] for k in (1, 2, 3)])
    if cstar:
        p = sa.spectral_decompose(sa.random_selfadjoint(alg, rng)).projections()[0]
        cases += [[sa.random_element(alg, rng) * p for _ in range(k)] for k in (1, 2, 3)]
    return cases


@pytest.mark.parametrize("name", list(_ANNIHILATOR_PINS))
def test_annihilators_from_one_right_projection_keep_their_answers(name):
    """The generator 1 - RP(sum s^* s) answers as the join of the RPs did: the same flag and dim on every case,
    and on a C*-algebra the generator 1 - RP(s_1) v ... v RP(s_k), with the join taken here."""
    alg = _ANNIHILATOR_ALGEBRAS[name]()
    cases = _annihilator_cases(alg, name in _CSTAR)
    results = [sa.annihilator(s) for s in cases]
    dims, refused = _ANNIHILATOR_PINS[name]
    assert "".join(str(r.dim) for r in results) == dims
    assert [i for i, r in enumerate(results) if not r.is_principal_projection_ideal] == refused
    if name not in _CSTAR:
        return
    one = alg.one()
    for subset, result in zip(cases, results):
        rps = [sa.right_projection(s) for s in subset]
        joined = rps[0]
        for e in rps[1:]:
            joined = sa.join(joined, e)
        assert (result.generator - (one - joined)).norm() <= certificate_bound(sa.DEFAULT_TOL)


def test_a_small_element_keeps_its_annihilator(monkeypatch):
    """Each s enters h = sum s^* s normalised: 1e-6 E11 counts in h though its own s^* s, 1e-12 E11, would fall
    under E22's zero rule, and the one right projection answers without the generic search."""
    def no_search(algebra, basis, tol):
        raise AssertionError("the generic right-ideal search ran")

    monkeypatch.setattr(rickart, "_ideal_generator", no_search)
    alg = sa.matrix_algebra(3)
    unit = np.eye(9)
    result = sa.annihilator([alg.element(1e-6 * unit[0]), alg.element(unit[4])])  # 1e-6 E11, E22
    assert result.dim == 3 and result.is_principal_projection_ideal
    assert (result.generator - alg.element(unit[8])).norm() <= certificate_bound(sa.DEFAULT_TOL)  # E33


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


def _shortcut_subsets(alg, rng):
    """Random sets of 3 to n + 1 elements, first of all invertible, then with a rank-deficient first member."""
    p = sa.spectral_decompose(sa.random_selfadjoint(alg, rng)).projections()[0]
    sets = []
    for first in (lambda: sa.random_element(alg, rng), lambda: sa.random_element(alg, rng) * p):
        for size in range(3, alg.dim + 2):
            sets.append([first()] + [sa.random_element(alg, rng) for _ in range(size - 1)])
    sets.append([sa.random_element(alg, rng) * p for _ in range(3)])  # a common kernel that is not {0}
    return sets


_SHORTCUT_ALGEBRAS = {
    **{name: (lambda name=name: (_ANNIHILATOR_ALGEBRAS[name](), name in _CSTAR)) for name in _ANNIHILATOR_PINS},
    "M4": lambda: (sa.matrix_algebra(4), True),
    "C[S3]": lambda: (sa.build_group_algebra(sa.symmetric_group_3()), True),
    "scrambled [3,2]": lambda: (semisimple_instance([3, 2], 0, np.random.default_rng(4)), True),
}


@pytest.mark.parametrize("name", list(_SHORTCUT_ALGEBRAS))
def test_the_full_rank_shortcut_keeps_every_annihilator(monkeypatch, name):
    """A set of three or more whose first member alone has kernel {0} takes no stacked SVD; with the shortcut on
    and patched out, every annihilator of ``_annihilator_cases`` and of random sets on dense and table algebras
    has the same dimension, basis and generator, bit for bit."""
    alg, cstar = _SHORTCUT_ALGEBRAS[name]()
    cases = _annihilator_cases(alg, cstar)
    if cstar:
        cases += _shortcut_subsets(alg, np.random.default_rng(8))
    taken = []
    alone = rickart.full_rank_in_stack
    monkeypatch.setattr(rickart, "full_rank_in_stack",
                        lambda m, norm, tol: taken.append(alone(m, norm, tol)) or taken[-1])
    on = [sa.annihilator(s) for s in cases]
    monkeypatch.setattr(rickart, "full_rank_in_stack", lambda m, norm, tol: False)
    off = [sa.annihilator(s) for s in cases]
    for got, ref in zip(on, off, strict=True):
        assert got.dim == ref.dim and got.is_principal_projection_ideal == ref.is_principal_projection_ideal
        for x, y in zip(got.subspace_basis, ref.subspace_basis, strict=True):
            np.testing.assert_array_equal(x.coeffs, y.coeffs)
        assert (got.generator is None) == (ref.generator is None)
        if got.generator is not None:
            np.testing.assert_array_equal(got.generator.coeffs, ref.generator.coeffs)
    if cstar:
        assert any(taken) and not all(taken)


def test_the_guard_takes_no_svd_of_its_largest_subset(monkeypatch):
    """On M6 at seed 0 the Baer guard's second random subset has 22 members, and the first alone has kernel {0}:
    no (792, 36) stack reaches ``nullspace`` or ``svd``."""
    sizes, kernels, shapes = [], [], []
    ann, kernel, svd = rickart.annihilator, rickart.nullspace, np.linalg.svd
    monkeypatch.setattr(rickart, "annihilator", lambda s, tol=sa.DEFAULT_TOL: sizes.append(len(s)) or ann(s, tol))
    monkeypatch.setattr(rickart, "nullspace", lambda m, tol: kernels.append(np.shape(m)) or kernel(m, tol))
    monkeypatch.setattr(np.linalg, "svd", lambda m, *args, **kw: shapes.append(np.shape(m)) or svd(m, *args, **kw))
    assert sa.analyze(sa.matrix_algebra(6), seed=0).baer
    assert 22 in sizes
    assert (792, 36) not in kernels + shapes


# -- the kernels the right projections' routes hand back to the pass

_KERNEL_ALGEBRAS = {
    "scrambled [2,2]+1": lambda: semisimple_instance([2, 2], 1, np.random.default_rng(1)),
    "scrambled [3,2]": lambda: semisimple_instance([3, 2], 0, np.random.default_rng(4)),
    "M3": lambda: sa.matrix_algebra(3),
    "C[S3]": lambda: sa.build_group_algebra(sa.symmetric_group_3()),
}


@pytest.mark.parametrize("name", list(_KERNEL_ALGEBRAS))
def test_the_routes_hand_back_the_kernel_of_l_a(name):
    """On dense and monomial algebras, the kernel handed back with RP(a) spans nullspace(L_a), in unit columns:
    from the SVD for the rank-deficient x p of ``_annihilator_cases`` (the benchmark makes no such row), and
    for each basis element on the dense form. A basis element read off the product table comes with none, as
    the pass reads its kernel off the table itself (``core._table_singular_values``)."""
    alg, tol = _KERNEL_ALGEBRAS[name](), sa.DEFAULT_TOL
    deficient = [a for subset in _annihilator_cases(alg, True)[-3:] for a in subset]
    xs = deficient + alg.basis()
    found = list(spectral._right_projections_and_kernels(xs, tol))
    table = alg._tables is not None
    assert [form and form.func for _, form in found] == ([spectral._svd_kernel] * len(deficient)
                                                         + [None if table else spectral._svd_kernel] * alg.dim)
    for i, (a, (_, form)) in enumerate(zip(xs, found[:len(deficient) if table else len(xs)])):
        kernel = form()
        assert kernel.shape[1] > 0 or i >= len(deficient)
        assert np.abs(np.linalg.norm(kernel, axis=0) - 1.0).max(initial=0.0) <= 1e-12
        assert subspaces_equal(colspace(kernel, tol), nullspace(a.lmat(), tol), membership_bound(tol))


@pytest.mark.parametrize("name", ["scrambled [2,2]+1", "M3"])
def test_a_projection_that_leaves_a_kernel_direction_alive_is_reported(monkeypatch, name):
    """With the samples x p rank-deficient and ``_certified`` patched to accept p + q, for q a projection under
    1 - p, in place of RP(x p) = p: a (p + q) = a still holds, so only L_RP(a) = 0 on the kernel the SVD handed
    back can catch it. The pass names the first sample, with a kernel vector v of L_a (|L_a v| <= 1e-12) that
    p + q does not annihilate, and takes no ``nullspace``; without the patch the same samples pass."""
    make, tol = _KERNEL_ALGEBRAS[name], sa.DEFAULT_TOL
    rng = np.random.default_rng(5)
    alg = make()
    one = alg.one()
    p = sa.spectral_decompose(sa.random_selfadjoint(alg, rng)).projections()[0]
    q = sa.spectral_decompose((one - p) * sa.random_selfadjoint(alg, rng) * (one - p)).projections()[0]
    assert sa.is_projection(p + q) and (p * q).norm() <= certificate_bound(tol)
    sample, kernel, kernels = rickart.random_element, rickart.nullspace, []
    monkeypatch.setattr(rickart, "random_element",
                        lambda algebra, rng: sample(algebra, rng) * algebra.element(p.coeffs))
    monkeypatch.setattr(rickart, "nullspace", lambda m, tol: kernels.append(np.shape(m)) or kernel(m, tol))
    assert sa.check_weakly_rickart(make()).passed
    certified = spectral._certified

    def accepting(parent, a, e, ranks, tol):
        ok = certified(parent, a, e, ranks, tol)
        e[(ranks < parent.dim) & (np.count_nonzero(a, axis=1) > 1)] += q.coeffs  # the samples' rows
        return ok

    monkeypatch.setattr(spectral, "_certified", accepting)
    alg = make()
    report = sa.check_weakly_rickart(alg)
    first = sample(alg, np.random.default_rng(0)) * alg.element(p.coeffs)
    a, v = (np.array([complex(*z) for z in report.witness[key]]) for key in ("element", "kernel_vector"))
    assert not report.passed and report.witness["element"] == _coeffs_json(first.coeffs)
    assert np.linalg.norm(alg.left_mat(a) @ v) <= 1e-12
    assert report.worst_residual == pytest.approx(np.linalg.norm((p + q).lmat() @ v), rel=1e-9)
    assert report.worst_residual > certificate_bound(tol) and kernels == []
