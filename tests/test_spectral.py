"""Spectral decompositions, RP/LP, quasi-inverse, positive sqrt, EP witness, C*-norm."""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import _random_algebras

import staralg as sa
from staralg import rickart, spectral, structure
from staralg.instances import nilpotent_mutant, semisimple_instance, swap_mutant


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
    alg = swap_mutant(1)
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
    pytest.param(lambda: swap_mutant(1), id="swap_algebra"),  # C + C with the swap involution
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
        sa.cstar_norm(swap_mutant(1).element([1.0, 0.0]))


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


# -- one decomposition per input while analyze runs ----------------------------

def _count_solves(monkeypatch):
    """Record each matrix numpy.linalg.eig solves, once per matrix of a stack; the solver is its one caller."""
    solves = []
    eig = np.linalg.eig

    def counted(m):
        solves.extend([m.shape[-2:]] * int(np.prod(m.shape[:-2])))
        return eig(m)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return solves


@pytest.mark.parametrize("make", [
    lambda: sa.matrix_algebra(3),
    lambda: sa.build_group_algebra(sa.symmetric_group_3()),
], ids=["M3", "C[S3]"])
def test_analyze_runs_the_solver_once_per_distinct_input(monkeypatch, make):
    solves, inputs = _count_solves(monkeypatch), _record_inputs(monkeypatch)
    sa.analyze(make())
    assert len(solves) == len(set(inputs)) < len(inputs)


def _record_inputs(monkeypatch):
    """Record the (parent, coefficients, tol) key of every element asked of the memo, row by row."""
    inputs = []
    decompose = spectral._decompositions

    def recorded(bs, tol):
        inputs.extend((b.parent, b.coeffs.tobytes(), tol) for b in bs)
        return decompose(bs, tol)

    monkeypatch.setattr(spectral, "_decompositions", recorded)
    return inputs


@pytest.mark.parametrize("make", [
    lambda: sa.matrix_algebra(3),
    lambda: sa.build_group_algebra(sa.group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)])),
], ids=["M3", "C[S4]"])
def test_check_weakly_rickart_alone_runs_the_solver_once_per_distinct_input(monkeypatch, make):
    """Called outside analyze, the pass opens its own decomposition scope."""
    solves, inputs = _count_solves(monkeypatch), _record_inputs(monkeypatch)
    assert sa.check_weakly_rickart(make()).passed
    assert len(solves) == len(set(inputs)) < len(inputs)


def test_the_memo_ends_with_its_analyze_call(monkeypatch):
    alg = sa.matrix_algebra(3)
    sa.analyze(alg)
    assert spectral._MEMO.get() is None
    assert not any(isinstance(v, spectral.SpectralDecomposition) for v in alg._cache.values())
    assert not any(key[0] in (spectral.spectral_decompose, spectral._spectral_decompose) for key in alg._cache)
    solves = _count_solves(monkeypatch)
    a = alg.element(np.arange(9.0))
    first, second = sa.right_projection(a), sa.right_projection(a)
    assert len(solves) == 2
    np.testing.assert_array_equal(first.coeffs, second.coeffs)


def test_the_baer_guard_reuses_the_weakly_rickart_decompositions(monkeypatch):
    """The guard's singletons ask for RP(e_i) again; none of its misses repeats one of the pass."""
    alg = sa.matrix_algebra(3)
    phase = ["other"]
    made = {"other": [], "pass": [], "guard": []}
    asked_in_guard = set()

    def in_phase(name, fn):
        def run(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return run

    monkeypatch.setattr(rickart, "_weakly_rickart_pass", in_phase("pass", rickart._weakly_rickart_pass))
    monkeypatch.setattr(rickart, "annihilator", in_phase("guard", rickart.annihilator))
    solve, decompose = spectral._spectral_decompose, spectral._decompositions

    def solved(bs, tol):
        made[phase[0]].extend(b.coeffs.tobytes() for b in bs)
        return solve(bs, tol)

    def asked(bs, tol):
        if phase[0] == "guard":
            asked_in_guard.update(b.coeffs.tobytes() for b in bs)
        return decompose(bs, tol)

    monkeypatch.setattr(spectral, "_spectral_decompose", solved)
    monkeypatch.setattr(spectral, "_decompositions", asked)
    assert sa.analyze(alg).baer
    basis_inputs = {spectral._selfadjoint_part(e.star() * e).coeffs.tobytes() for e in alg.basis()}
    assert basis_inputs <= set(made["pass"])
    assert len(basis_inputs & asked_in_guard) >= 3  # the guard's singletons e_0, e_1, e_2
    assert not set(made["guard"]) & set(made["pass"])
    every = made["other"] + made["pass"] + made["guard"]
    assert len(every) == len(set(every))


def _memo_corpus():
    """Fresh instances on every call, so no per-algebra cache carries over."""
    return _random_algebras() + [
        sa.matrix_algebra(4),
        sa.build_group_algebra(sa.group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)])),
        sa.build_group_algebra(sa.dihedral_group(6)),
        swap_mutant(1),
        nilpotent_mutant(2),
    ]


def _report_json(alg, seed):
    try:
        return json.dumps(sa.analyze(alg, seed=seed).to_dict())
    except sa.ValidationFailed as exc:  # the random constants are not associative
        return repr(exc)


@pytest.mark.parametrize("seed", [0, 3])
def test_reports_are_byte_identical_without_the_memo(monkeypatch, seed):
    solves = _count_solves(monkeypatch)
    with_memo = [_report_json(alg, seed) for alg in _memo_corpus()]
    solved_with_memo = len(solves)
    for module in (structure, rickart):
        monkeypatch.setattr(module, "_decomposition_scope", contextlib.nullcontext)
    without_memo = [_report_json(alg, seed) for alg in _memo_corpus()]
    assert len(solves) - solved_with_memo > solved_with_memo
    assert without_memo == with_memo


# -- one stacked solver --------------------------------------------------------

def _assert_same_entry(got, alone):
    """A row of a stack matches its stack-of-one solve: terms within 1e-12 relative, or the same exception."""
    if isinstance(alone, Exception):
        assert type(got) is type(alone) and str(got) == str(alone)
        return
    assert isinstance(got, sa.SpectralDecomposition) and len(got.terms) == len(alone.terms)
    for (lam, p), (ref_lam, ref_p) in zip(got.terms, alone.terms):
        assert abs(lam - ref_lam) <= 1e-12 * max(1.0, abs(ref_lam))
        assert (p - ref_p).norm() <= 1e-12 * max(1.0, ref_p.norm())


def _mixed_stacks():
    """Two stacks: M2 + swap_mutant(1) (unital), and a non-unital algebra solved in its unitization."""
    rng = np.random.default_rng(21)
    m2 = sa.matrix_algebra(2)
    alg = sa.direct_sum(m2, swap_mutant(1))
    h = sa.random_selfadjoint(m2, rng)
    swap = alg.element([0, 0, 0, 0, 1.0, 1.0j])
    rows = [
        alg.element(np.append(h.coeffs, [0, 0])),                   # normal, real spectrum
        alg.element(np.append((h + 1j * (h * h)).coeffs, [0, 0])),  # normal, complex spectrum
        alg.element([0, 1.0, 0, 0, 0, 0]),                          # E12: not normal
        alg.zero(),
        swap + swap.star(),                                         # normal; its certificates fail
        alg.element([1e200, 0, 0, 0, 0, 0]),                        # b* b overflows
        alg.one(),
        alg.element(np.append(h.coeffs, [0, 0])),                   # the first row again
        alg.element([0, 0, 0, 0, 1.0, 0]),                          # a swap-part projection: fails
    ]
    part = semisimple_instance([2], 1, rng)
    nonunital = sa.direct_sum(part, sa.nilpotent_line())
    assert not nonunital.is_unital()
    g = sa.random_selfadjoint(part, rng)
    nrows = [
        nonunital.element(np.append(g.coeffs, 0.0)),
        nonunital.element(np.append((g * g).coeffs, 0.0)),
        nonunital.basis_element(nonunital.dim - 1),  # x with x^2 = 0: no terms, so b = 0 fails
        nonunital.zero(),
        nonunital.element(np.append(g.coeffs, 0.0)),
    ]
    return [rows, nrows]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_stacked_solver_matches_one_at_a_time():
    for rows in _mixed_stacks():
        stacked = spectral._spectral_decompose(rows, sa.DEFAULT_TOL)
        alone = [spectral._spectral_decompose([b], sa.DEFAULT_TOL)[0] for b in rows]
        for got, ref in zip(stacked, alone):
            _assert_same_entry(got, ref)
        assert any(isinstance(e, Exception) for e in stacked)
        assert any(isinstance(e, sa.SpectralDecomposition) and e.terms for e in stacked)
        # the rows that succeed come out the same without the rows that fail beside them
        ok = [i for i, e in enumerate(stacked) if not isinstance(e, Exception)]
        for i, e in zip(ok, spectral._spectral_decompose([rows[i] for i in ok], sa.DEFAULT_TOL)):
            for (lam, p), (ref_lam, ref_p) in zip(e.terms, stacked[i].terms, strict=True):
                assert lam == ref_lam and np.array_equal(p.coeffs, ref_p.coeffs)
    overflow = _mixed_stacks()[0][5]
    with pytest.raises(sa.DecompositionFailed, match=r"not normal \(residual nan\)"):
        sa.spectral_decompose(overflow)


def test_a_row_lapack_rejects_fails_alone(monkeypatch):
    """A stacked LAPACK call that raises is redone row by row; only the offending row keeps the error."""
    rng = np.random.default_rng(5)
    alg = sa.matrix_algebra(3)
    rows = [sa.random_selfadjoint(alg, rng) for _ in range(4)]
    clean = spectral._spectral_decompose(rows, sa.DEFAULT_TOL)
    bad = rows[2].lmat()
    eigvals = np.linalg.eigvals

    def picky(m):
        if np.any(np.all(m == bad, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", picky)
    out = spectral._spectral_decompose(rows, sa.DEFAULT_TOL)
    assert isinstance(out[2], np.linalg.LinAlgError) and str(out[2]) == "Eigenvalues did not converge"
    with pytest.raises(np.linalg.LinAlgError):
        sa.spectral_decompose(rows[2])
    for i in (0, 1, 3):
        for (lam, p), (ref_lam, ref_p) in zip(out[i].terms, clean[i].terms, strict=True):
            assert lam == ref_lam and np.array_equal(p.coeffs, ref_p.coeffs)


def test_right_projections_match_one_at_a_time():
    for rows in _mixed_stacks():
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = spectral.right_projections(rows)
            alone = [spectral.right_projections([a])[0] for a in rows]
        for got, ref in zip(stacked, alone):
            if isinstance(ref, Exception):
                assert type(got) is type(ref) and str(got) == str(ref)
            else:
                assert np.array_equal(got.coeffs, ref.coeffs)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_the_memo_stores_each_success_once_and_no_failure():
    rows = _mixed_stacks()[0]
    with spectral._decomposition_scope():
        first = spectral._decompositions(rows, sa.DEFAULT_TOL)
        memo = dict(spectral._MEMO.get())
        again = spectral._decompositions(rows[::-1], sa.DEFAULT_TOL)[::-1]
    solved = {b.coeffs.tobytes() for b, e in zip(rows, first) if isinstance(e, sa.SpectralDecomposition)}
    assert {key[1] for key in memo} == solved and len(memo) == len(solved) < len(rows) - 1
    assert all(isinstance(dec, sa.SpectralDecomposition) for dec in memo.values())
    for e, f in zip(first, again):
        if isinstance(e, Exception):
            assert type(f) is type(e) and str(f) == str(e)  # solved again, not stored
        else:
            assert f is e
