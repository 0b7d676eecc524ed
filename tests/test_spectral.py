"""Spectral decompositions, RP/LP, quasi-inverse, positive sqrt, EP witness, C*-norm."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import _group_algebras, _random_algebras, ref_unitization
from test_structure import _diagonally_scaled

import staralg as sa
from staralg import rickart, spectral, structure
from staralg.core import _cached, _coeffs_json
from staralg.instances import nilpotent_mutant, semisimple_instance, swap_mutant
from staralg.linalg import (certificate_bound, colspace, membership_bound, relative_bound, significant,
                            subspaces_equal)


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


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_an_overflow_is_ill_conditioned_not_a_failed_decomposition(m2):
    """c E11 is normal at every scale; where b*b overflows no certificate can be made, and
    the solver says so instead of reporting the element as not normal."""
    overflow = r"overflow or are not finite \(residual nan\)"
    for c in (1e160, 1e200):
        a = m2.element([c, 0, 0, 0])
        for fn in (sa.spectral_decompose, sa.right_projection, sa.quasi_inverse):
            with pytest.raises(sa.IllConditioned, match=overflow):
                fn(a)
    with pytest.raises(sa.IllConditioned, match=overflow):
        sa.quasi_inverse(m2.element([1e150, 0, 0, 0]))  # its a*a = 1e300 E11 overflows when squared
    a = m2.element([1e150, 0, 0, 0])
    assert [lam for lam, _ in sa.spectral_decompose(a).terms] == [1e150]
    assert np.allclose(sa.right_projection(a).coeffs, [1, 0, 0, 0], rtol=0, atol=1e-12)


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


_SMALL_RAISES = pytest.mark.xfail(
    raises=sa.DecompositionFailed,
    reason="raises DecompositionFailed: a*a = s^2 E11 falls below the sqrt(tol) cut-off, so the "
           "projection found is 0, and a 0 - a = -s E11 misses the absolute certificate_bound 1e-6")
_SMALL_ZERO = pytest.mark.xfail(
    raises=AssertionError,
    reason="returns 0: a*a falls below the sqrt(tol) cut-off, and a 0 - a = -s E11 is within the "
           "absolute certificate_bound 1e-6, so the zero answer is certified")


def _small_cases():
    for op in ("right_projection", "quasi_inverse", "positive_sqrt"):
        for s in (1e-4, 3e-5, 1e-5, 2e-6, 1e-6, 1e-7):
            marks = (() if op == "positive_sqrt" or s > 3e-5 else _SMALL_RAISES if s > 1e-6 else _SMALL_ZERO)
            yield pytest.param(op, s, marks=marks, id=f"{op}-{s:g}")


@pytest.mark.parametrize("op, s", _small_cases())
def test_a_small_element_above_the_zero_rule_keeps_its_answer(m2, op, s):
    """s E11 has norm s above tol = 1e-9, the package's zero rule for an element: its RP is E11,
    its quasi-inverse E11 / s and its positive square root sqrt(s) E11."""
    e11 = m2.basis_element(0)
    expected = {"right_projection": e11, "quasi_inverse": e11 * (1 / s), "positive_sqrt": e11 * np.sqrt(s)}[op]
    got = getattr(sa, op)(s * e11)
    assert (got - expected).norm() <= 1e-12 * expected.norm()


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
    """The trace form F and the Gram matrix built from it agree with one trace per pair in a
    unitization, restricted to A's coordinates."""
    from staralg.core import _trace_form
    from staralg.spectral import _gram_matrix

    alg = make()
    big, emb, _ = ref_unitization(alg)
    lmats = [e.lmat() for e in big.basis()]
    form = np.array([[np.trace(li @ lj) for lj in lmats] for li in lmats])
    left = [big.left_mat(emb @ e.coeffs) for e in alg.basis()]
    star_left = [big.left_mat(emb @ e.star().coeffs) for e in alg.basis()]
    g = np.array([[np.trace(si @ lj) for lj in left] for si in star_left])
    g = 0.5 * (g + g.conj().T)
    form = emb.conj().T @ form @ emb  # restricted to A's coordinates
    scale = max(1.0, float(np.max(np.abs(form))))
    assert np.max(np.abs(_cached(alg, _trace_form) - form)) <= 1e-12 * scale
    assert np.max(np.abs(_cached(alg, _gram_matrix) - g)) <= 1e-12 * scale


def test_cstar_norm_rejects_improper():
    with pytest.raises(sa.NoCStarNorm):
        sa.cstar_norm(swap_mutant(1).element([1.0, 0.0]))


def ref_cstar_norm(a, tol=sa.DEFAULT_TOL):
    """The 2-norm of G^1/2 L_a G^-1/2 from an ``eigh`` of G of its own, as it was computed before;
    None where G is not positive definite."""
    evals, evecs = np.linalg.eigh(_cached(a.parent, spectral._gram_matrix))
    if evals[0] <= relative_bound(tol, evals[-1]):
        return None
    ghalf = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
    ginvhalf = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
    return float(np.linalg.norm(ghalf @ a.lmat() @ ginvhalf, 2))


@pytest.mark.parametrize("make", [
    lambda rng: sa.matrix_algebra(3),
    lambda rng: semisimple_instance([3, 2], 1, rng),
    lambda rng: semisimple_instance([2, 2], 2, rng),
    lambda rng: sa.build_group_algebra(sa.symmetric_group_3()),
    lambda rng: sa.build_group_algebra(sa.quaternion_group()),
    lambda rng: sa.build_group_algebra(sa.cyclic_group(5)),
    *[lambda rng, k=k: swap_mutant(k) for k in (1, 2, 3)],
    *[lambda rng, k=k: nilpotent_mutant(k) for k in range(4)],
    lambda rng: sa.direct_sum(sa.matrix_algebra(2), sa.nilpotent_line()),
])
def test_cstar_norm_reads_the_trace_coordinates(make):
    """|a| = sqrt(lambda_max(pi(a)^H pi(a))) agrees with the G^1/2 L_a G^-1/2 2-norm within 1e-12,
    and NoCStarNorm is raised exactly where check_proper fails."""
    rng = np.random.default_rng(6)
    alg = make(rng)
    proper = sa.check_proper(alg).passed
    for a in [sa.random_element(alg, rng) for _ in range(4)] + alg.basis():
        ref = ref_cstar_norm(a)
        assert (ref is not None) == proper
        if not proper:
            with pytest.raises(sa.NoCStarNorm):
                sa.cstar_norm(a)
            continue
        assert sa.cstar_norm(a) == pytest.approx(ref, rel=1e-12, abs=0)


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


# -- one right projection per input while analyze runs ------------------------

_PHASES = ("pass", "guard", "cross", "other")


def _record_right_projections(monkeypatch):
    """The coefficient bytes of every row ``right_projections`` is asked for, and of every row it solves.

    A row is solved when the trace-form stack accepts it, its RP read off the
    product table or found by the SVD, or the solver is called on it. Each list
    is kept by phase: "pass" inside the weakly-Rickart pass,
    "guard" inside ``annihilator`` (the Baer guard's subsets), "cross" in the rest
    of ``check_baer`` (its pairs' RP(e_i) and joins) and "other" elsewhere."""
    phase = ["other"]
    asked, solved = ({name: [] for name in _PHASES} for _ in range(2))
    ask, stack = spectral._right_projections_and_kernels, spectral._trace_form_projections
    solve = spectral._solved_right_projection

    def in_phase(name, fn):
        def run(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return run

    def asking(xs, tol):
        asked[phase[0]].extend(a.coeffs.tobytes() for a in xs)
        return ask(xs, tol)

    def stacking(parent, rows, coords, tol):
        out = stack(parent, rows, coords, tol)
        solved[phase[0]].extend(row.tobytes() for row, e in zip(rows, out) if e is not None)
        return out

    def solving(a, tol):
        solved[phase[0]].append(a.coeffs.tobytes())
        return solve(a, tol)

    monkeypatch.setattr(rickart, "_weakly_rickart_pass", in_phase("pass", rickart._weakly_rickart_pass))
    monkeypatch.setattr(rickart, "annihilator", in_phase("guard", rickart.annihilator))
    cross = in_phase("cross", rickart.check_baer)
    for module in (rickart, structure):
        monkeypatch.setattr(module, "check_baer", cross)
    for module in (spectral, rickart):  # every right_projections call and the pass's go through it
        monkeypatch.setattr(module, "_right_projections_and_kernels", asking)
    monkeypatch.setattr(spectral, "_trace_form_projections", stacking)
    monkeypatch.setattr(spectral, "_solved_right_projection", solving)
    return asked, solved


def _published(alg, tol=sa.DEFAULT_TOL):
    return alg._cache[(spectral._PUBLISHED_RPS, tol)]


def _basis_rows(alg):
    return {e.coeffs.tobytes() for e in alg.basis()}


def _record_annihilator_dims(monkeypatch):
    """The dim of every annihilator the Baer guard computes, in order."""
    dims = []
    ann = rickart.annihilator

    def recording(elements, tol=sa.DEFAULT_TOL):
        result = ann(elements, tol)
        dims.append(result.dim)
        return result

    monkeypatch.setattr(rickart, "annihilator", recording)
    return dims


@pytest.mark.parametrize("make", [
    lambda: sa.matrix_algebra(3),
    lambda: sa.build_group_algebra(sa.symmetric_group_3()),
], ids=["M3", "C[S3]"])
def test_analyze_runs_the_solver_once_per_distinct_input(monkeypatch, make):
    """The pass solves each basis row once; the guard's pair cross-check reads them from its table, and each
    guard annihilator solves one row, RP(h), or none when it is {0}."""
    alg = make()
    asked, solved = _record_right_projections(monkeypatch)
    dims = _record_annihilator_dims(monkeypatch)
    sa.analyze(alg)
    basis = _basis_rows(alg)
    every = [row for name in _PHASES for row in solved[name]]
    assert Counter(row for row in every if row in basis) == Counter(basis)
    assert basis <= set(solved["pass"])
    assert len(basis & set(asked["cross"])) >= 3  # the pairs' e_i
    assert not basis & set(solved["guard"] + solved["cross"])
    assert len(dims) == 6 and solved["guard"] == asked["guard"]
    assert len(asked["guard"]) == sum(dim > 0 for dim in dims)


@pytest.mark.parametrize("make", [
    lambda: sa.matrix_algebra(3),
    lambda: sa.build_group_algebra(sa.group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)])),
], ids=["M3", "C[S4]"])
def test_check_weakly_rickart_alone_runs_the_solver_once_per_distinct_input(monkeypatch, make):
    """A lone pass publishes exactly the rows it solved; a pass at another seed solves only its 8 samples."""
    alg = make()
    asked, solved = _record_right_projections(monkeypatch)
    assert sa.check_weakly_rickart(alg).passed
    rows = solved["pass"]
    assert len(rows) == len(set(rows)) == alg.dim + 8 and asked["pass"] == rows
    assert set(_published(alg)) == set(rows)
    assert sa.check_weakly_rickart(alg, seed=1).passed
    samples = rows[alg.dim + 8:]
    assert len(samples) == 8 and not set(samples) & _basis_rows(alg)
    assert set(_published(alg)) == set(rows) and len(rows) == alg.dim + 16


def test_the_memo_ends_with_its_analyze_call(monkeypatch):
    """Queries on an algebra no pass ran on leave no table; after analyze, RP(e_i) is read from the table."""
    alg = sa.matrix_algebra(3)
    a, b = alg.element(np.arange(9.0)), alg.basis_element(1)

    def query():
        return [sa.right_projection(a), sa.right_projection(b), sa.join(sa.right_projection(a), b * b.star()),
                sa.annihilator([a, b]).generator]

    query()  # fills the algebra's other facts
    facts = set(alg._cache)
    assert not any(key[0] == spectral._PUBLISHED_RPS for key in facts)
    asked, solved = _record_right_projections(monkeypatch)
    first, second = query(), query()
    assert set(alg._cache) == facts and solved["other"] == asked["other"]
    for e, f in zip(first, second):
        np.testing.assert_array_equal(e.coeffs, f.coeffs)
    sa.analyze(alg)
    table = _published(alg)
    unsolved, solves = len(solved["other"]), _count_solves(monkeypatch)
    got = [sa.right_projection(e) for e in alg.basis()]
    assert not solves and len(solved["other"]) == unsolved
    fresh = sa.matrix_algebra(3)
    for i, (e, rp) in enumerate(zip(alg.basis(), got)):
        assert rp.coeffs.tobytes() == table[e.coeffs.tobytes()].tobytes()
        np.testing.assert_array_equal(rp.coeffs, sa.right_projection(fresh.basis_element(i)).coeffs)


def test_the_baer_guard_reuses_the_weakly_rickart_decompositions(monkeypatch):
    """The guard's pair cross-check asks for RP(e_i) again; none of the guard's solves repeats one of the pass.

    One row is solved twice on M3. Its pairs are distinct, but two of them, {E_12, E_21} and {E_21, E_22},
    have the same h = sum s^* s = E_11 + E_22. The table holds the pass's rows only, so the second RP(h) is
    solved afresh, to the same bits. Each pair's join solves at most one row."""
    alg = sa.matrix_algebra(3)
    asked, solved = _record_right_projections(monkeypatch)
    assert sa.analyze(alg).baer
    basis = _basis_rows(alg)
    assert basis <= set(solved["pass"])
    assert len(basis & set(asked["cross"])) >= 3  # the e_i of the guard's pairs
    assert not set(solved["guard"] + solved["cross"]) & set(solved["pass"])
    assert len(solved["cross"]) <= 4
    every = Counter(row for name in _PHASES for row in solved[name])
    repeated = [row for row, count in every.items() if count > 1]
    assert len(repeated) <= 1 and not set(repeated) & basis
    assert all(every[row] == 2 and row in solved["guard"] for row in repeated)


@pytest.mark.parametrize("make", [
    lambda: sa.matrix_algebra(4),
    lambda: sa.build_group_algebra(sa.group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)])),
], ids=["M4", "C[S4]"])
def test_check_baer_alone_solves_no_input_twice(monkeypatch, make):
    """``staralg check --property baer``'s path, with no analyze before it: the pass publishes its rows, and the
    guard solves at most one row per subset, RP(h), plus one per pair join, none of them twice."""
    alg = make()
    asked, solved = _record_right_projections(monkeypatch)
    assert rickart.check_baer(alg).passed
    every = [row for name in _PHASES for row in solved[name]]
    assert len(every) == len(set(every))
    assert solved["pass"] == asked["pass"] and len(solved["pass"]) == alg.dim + 8
    assert len(solved["guard"]) <= 4 + 2 and len(solved["cross"]) <= 4  # RP(h) per subset, a row per pair join
    assert not solved["other"]


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
def test_reports_are_byte_identical_without_the_published_table(monkeypatch, seed):
    """With the pass publishing under a key no reader looks up, reports are equal and more rows are solved."""
    _, solved = _record_right_projections(monkeypatch)
    with_table = [_report_json(alg, seed) for alg in _memo_corpus()]
    solved_with_table = sum(len(rows) for rows in solved.values())
    publish = spectral._publish
    monkeypatch.setattr(rickart, "_publish", lambda parent, xs, es, tol: publish(parent, xs, es, ("unread", tol)))
    without_table = [_report_json(alg, seed) for alg in _memo_corpus()]
    assert sum(len(rows) for rows in solved.values()) - solved_with_table > solved_with_table
    assert without_table == with_table


# -- right projections through the solver, one element at a time ---------------

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


def _outcome(fn):
    """``fn()``, or the type and message of the exception it raises."""
    try:
        return fn()
    except (sa.StarAlgError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def _outcomes(rows, tol=sa.DEFAULT_TOL):
    """Each row's ``right_projections`` outcome: its RP, or the type and message of the exception it raises.

    A row that raises ends its iterator, so the rows after it are asked for in a fresh one."""
    out = []
    while len(out) < len(rows):
        rps = spectral.right_projections(rows[len(out):], tol)
        try:
            for e in rps:
                out.append(e)
        except (sa.StarAlgError, np.linalg.LinAlgError) as exc:
            out.append((type(exc), str(exc)))
            assert next(rps, None) is None
    return out


def _assert_bit_equal(got, ref):
    """Two outcomes: bit-equal elements, or exceptions of one type and message."""
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert np.array_equal(got.coeffs, ref.coeffs)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_solved_rows_match_their_own_decomposition():
    """Each row the solver answers is the projection sum of its own a*a, or that solve's exception."""
    for rows in _mixed_stacks():
        assert _cached(rows[0].parent, spectral._trace_coordinates, sa.DEFAULT_TOL)[2] is None
        out = _outcomes(rows)
        for a, got in zip(rows, out):
            if a.norm() <= sa.DEFAULT_TOL:
                assert np.array_equal(got.coeffs, a.parent.zero().coeffs)
                continue
            ref = _outcome(lambda: sa.spectral_decompose(spectral._selfadjoint_part(a.star() * a)).projection_sum())
            if isinstance(ref, tuple):
                assert got == ref
            elif isinstance(got, tuple):  # a decomposition whose sum fails a RP(a) = a
                assert got[0] is sa.DecompositionFailed and got[1].startswith("RP certificate")
            else:
                assert np.array_equal(got.coeffs, ref.coeffs)
        assert any(isinstance(e, tuple) for e in out)
        assert any(isinstance(e, sa.Element) and e.norm() > 0 for e in out)
        # the rows that succeed come out the same without the rows that fail beside them
        ok = [i for i, e in enumerate(out) if isinstance(e, sa.Element)]
        for i, e in zip(ok, spectral.right_projections([rows[i] for i in ok]), strict=True):
            _assert_bit_equal(e, out[i])
    overflow = _mixed_stacks()[0][5]
    with pytest.raises(sa.IllConditioned, match=r"overflow or are not finite \(residual nan\)"):
        sa.spectral_decompose(overflow)


def test_a_row_lapack_rejects_fails_alone(monkeypatch):
    """A row whose solve LAPACK rejects raises the LinAlgError, as it does alone; the rows beside it are unchanged."""
    rng = np.random.default_rng(5)
    part = semisimple_instance([2], 1, rng)
    alg = sa.direct_sum(part, sa.nilpotent_line())
    assert not alg.is_unital()  # so every right projection goes to the solver
    rows = [alg.element(np.append(sa.random_element(part, rng).coeffs, 0.0)) for _ in range(4)]
    clean = list(spectral.right_projections(rows))
    h = spectral._selfadjoint_part(rows[2].star() * rows[2])  # the solver's input for RP(rows[2])
    bad = alg.left_mat(h.coeffs)  # its L_h
    eigvals = np.linalg.eigvals

    def picky(m):
        if np.allclose(m, bad, rtol=0.0, atol=1e-12):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", picky)
    out = _outcomes(rows)
    assert out[2] == (np.linalg.LinAlgError, "Eigenvalues did not converge")
    with pytest.raises(np.linalg.LinAlgError):
        sa.spectral_decompose(h)
    for a, got in zip(rows, out):
        _assert_bit_equal(got, _outcome(lambda: sa.right_projection(a)))
    for i in (0, 1, 3):
        _assert_bit_equal(out[i], clean[i])


def test_right_projections_match_one_at_a_time():
    """Each row's outcome in its stack is ``right_projection`` of it alone: the same bits, or the same error."""
    for rows in _mixed_stacks():
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = _outcomes(rows)
            alone = [_outcome(lambda: sa.right_projection(a)) for a in rows]
        assert any(isinstance(e, tuple) for e in stacked)
        for got, ref in zip(stacked, alone):
            _assert_bit_equal(got, ref)


def test_the_memo_stores_each_success_once_and_no_failure(monkeypatch):
    """On M2 + swap_mutant(1) the pass publishes each success before its first failure once, and
    nothing from that failure on; a later call solves the rest."""
    def make():
        return sa.direct_sum(sa.matrix_algebra(2), swap_mutant(1))

    alg = make()
    seen = []
    ask = rickart._right_projections_and_kernels

    def asking(xs, tol):
        seen.append(xs)
        return ask(xs, tol)

    monkeypatch.setattr(rickart, "_right_projections_and_kernels", asking)
    assert not sa.check_weakly_rickart(alg).passed
    [rows] = seen
    fresh = make()
    truth = _outcomes([fresh.element(a.coeffs) for a in rows])  # on an algebra no pass ran on
    first = next(i for i, e in enumerate(truth) if isinstance(e, tuple))
    assert 0 < first < len(rows) == len({a.coeffs.tobytes() for a in rows})
    table = _published(alg)
    assert list(table) == [a.coeffs.tobytes() for a in rows[:first]]
    assert all(table[a.coeffs.tobytes()].tobytes() == e.coeffs.tobytes() for a, e in zip(rows, truth[:first]))
    solves = _count_solves(monkeypatch)
    again = _outcomes(rows)
    assert len(solves) == len(rows) - first  # one solve for each row from the failure on, none for a published row
    for got, ref in zip(again, truth):
        _assert_bit_equal(got, ref)


@pytest.mark.parametrize("make", [
    lambda: swap_mutant(1), lambda: swap_mutant(2), lambda: swap_mutant(3),
    lambda: nilpotent_mutant(0), lambda: nilpotent_mutant(1), lambda: nilpotent_mutant(2), lambda: nilpotent_mutant(3),
], ids=["swap_mutant(1)", "swap_mutant(2)", "swap_mutant(3)",
        "nilpotent_mutant(0)", "nilpotent_mutant(1)", "nilpotent_mutant(2)", "nilpotent_mutant(3)"])
def test_the_weakly_rickart_pass_stops_at_its_first_failing_row(monkeypatch, make):
    """On a non-proper algebra every row goes to the solver, and the pass solves up to the row its report names."""
    alg = make()
    solved = []
    solve = spectral._solved_right_projection
    monkeypatch.setattr(spectral, "_solved_right_projection", lambda a, tol: solved.append(a) or solve(a, tol))
    report = sa.check_weakly_rickart(alg)
    assert not report.passed
    rng = np.random.default_rng(report.seed)
    tested = alg.basis() + [sa.random_element(alg, rng) for _ in range(8)]
    live = [a.coeffs for a in tested if a.norm() > sa.DEFAULT_TOL]
    failing = np.array([complex(re, im) for re, im in report.witness["element"]])
    first = next(i for i, row in enumerate(live) if np.array_equal(row, failing))
    assert len(solved) == first + 1
    assert all(np.array_equal(a.coeffs, row) for a, row in zip(solved, live))


def test_rows_no_route_hands_a_kernel_take_one_stacked_nullspace(monkeypatch):
    """The pass falls back to one ``nullspace`` stack over the solved rows that came with no kernel: the n
    basis rows a pass at another seed reads from the published table, the 8 samples the solver answers on M2
    rescaled at s^2 = 1e5 (proper, but without trace-form coordinates; its basis rows are on the product
    table), the 8 samples of M1, which the product table answers with no kernel, and every row when the
    trace-form path answers none. The reports stand as they were."""
    kernel, kernels = rickart.nullspace, []
    monkeypatch.setattr(rickart, "nullspace", lambda m, tol: kernels.append(np.shape(m)) or kernel(m, tol))
    alg = semisimple_instance([2, 2], 1, np.random.default_rng(1))
    n = alg.dim
    assert sa.check_weakly_rickart(alg).passed and kernels == []
    assert sa.check_weakly_rickart(alg, seed=1).passed and kernels == [(n, n, n)]
    kernels.clear()
    assert sa.check_weakly_rickart(_diagonally_scaled("M2", 1e5)).passed and kernels == [(8, 4, 4)]
    kernels.clear()
    assert sa.check_weakly_rickart(sa.matrix_algebra(1)).passed and kernels == [(8, 1, 1)]
    kernels.clear()
    ref = sa.check_weakly_rickart(semisimple_instance([2, 2], 1, np.random.default_rng(1))).to_dict()
    monkeypatch.setattr(spectral, "_trace_form_projections", lambda parent, rows, coords, tol: [None] * len(rows))
    got = sa.check_weakly_rickart(semisimple_instance([2, 2], 1, np.random.default_rng(1))).to_dict()
    assert kernels == [(n + 8, n, n)] and got.pop("worst_residual") < 1e-12
    ref.pop("worst_residual")
    assert got == ref


@pytest.mark.parametrize("error", [sa.IllConditioned("a later solve is ill-conditioned"),
                                   np.linalg.LinAlgError("a later solve is rejected")],
                         ids=["IllConditioned", "LinAlgError"])
def test_an_error_in_a_later_solve_gives_way_to_an_earlier_failing_row(monkeypatch, error):
    """With every row of M3 sent to the solver and every row failing its checks, the second solve's error
    does not reach the caller: the first row's report stands, as when no solve raises."""
    monkeypatch.setattr(spectral, "_trace_form_projections", lambda parent, rows, coords, tol: [None] * len(rows))
    monkeypatch.setattr(rickart, "certificate_bound", lambda tol: -1.0)
    ref = sa.check_weakly_rickart(sa.matrix_algebra(3)).to_dict()
    solve, calls = spectral._solved_right_projection, []

    def second_raises(a, tol):
        calls.append(None)
        if len(calls) == 2:
            raise error
        return solve(a, tol)

    monkeypatch.setattr(spectral, "_solved_right_projection", second_raises)
    alg = sa.matrix_algebra(3)
    got = sa.check_weakly_rickart(alg).to_dict()
    assert len(calls) == 2
    assert got == ref and got["witness"]["element"] == _coeffs_json(alg.basis_element(0).coeffs)
    assert list(_published(alg)) == [alg.basis_element(0).coeffs.tobytes()]


# -- one decomposition per input: the solver's last-success slot ----------------

def _slot(alg, tol=sa.DEFAULT_TOL):
    return alg._cache.get((spectral._LAST_DECOMPOSITION, tol))


def _count_eig(monkeypatch):
    """The matrices handed to ``np.linalg.eig`` from now on."""
    calls, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m) or eig(m))
    return calls


def _nonunital_part_element(alg, rng):
    """A random element of the semisimple summand of ``[2]+1 + nilpotent line``, 0 on the nilpotent line."""
    return alg.element(np.append(rng.standard_normal(alg.dim - 1) + 1j * rng.standard_normal(alg.dim - 1), 0.0))


_SLOT_CASES = {
    "M3": (lambda: sa.matrix_algebra(3), sa.random_element),
    "[3,2]+1": (lambda: semisimple_instance([3, 2], 1, np.random.default_rng(4)), sa.random_element),
    "C[D4]": (lambda: sa.build_group_algebra(sa.dihedral_group(4)), sa.random_element),
    # not unital and not proper (x* x = 0 on the line), so its right projections go to the solver
    "[2]+1 + nilpotent line": (lambda: sa.direct_sum(semisimple_instance([2], 1, np.random.default_rng(5)),
                                                     sa.nilpotent_line()), _nonunital_part_element),
}

_SQUARE_QUERIES = {
    "right_projection": sa.right_projection,
    "quasi_inverse": sa.quasi_inverse,
    "positive_sqrt": lambda a: sa.positive_sqrt(a.star() * a),
    "ep_witness": sa.ep_witness,
}


@pytest.mark.parametrize("case", list(_SLOT_CASES))
def test_the_queries_on_one_element_solve_its_square_once(monkeypatch, case):
    """RP(a), ``quasi_inverse(a)``, ``positive_sqrt(a*a)`` and ``ep_witness(a)`` run ``eig`` once between them,
    and each answer is bit-equal to that query alone on a fresh copy of the algebra."""
    make, draw = _SLOT_CASES[case]
    alg = make()
    a = draw(alg, np.random.default_rng(9))
    solver_rps = _cached(alg, spectral._trace_coordinates, sa.DEFAULT_TOL)[2] is None
    assert solver_rps == (case == "[2]+1 + nilpotent line")
    refs = {}
    for name, query in _SQUARE_QUERIES.items():
        fresh = make()
        refs[name] = query(fresh.element(a.coeffs))
    eigs, solves = _count_eig(monkeypatch), _count_solves(monkeypatch)
    got = {name: query(a) for name, query in _SQUARE_QUERIES.items()}
    assert len(eigs) == 1
    assert len(solves) == 3 + solver_rps
    assert len({b.coeffs.tobytes() for b in solves}) == 1
    for name in _SQUARE_QUERIES:
        assert got[name].coeffs.tobytes() == refs[name].coeffs.tobytes(), name


@pytest.mark.parametrize("make, coeffs, lapack", [
    (lambda: sa.matrix_algebra(2), [0, 1.0, 0, 0], 0),  # E12: not normal, refused before LAPACK
    (lambda: swap_mutant(1), [1 - 1j, 1 + 1j], 1),      # normal; its certificates fail
], ids=["E12 on M2", "swap_mutant(1)"])
def test_a_failed_decomposition_is_not_kept(monkeypatch, make, coeffs, lapack):
    """A failure leaves the last success in the slot, and a second call solves again and raises the same error."""
    alg = make()
    sa.spectral_decompose(alg.one())
    slot = _slot(alg)
    b = alg.element(coeffs)
    first = _outcome(lambda: sa.spectral_decompose(b))
    assert first[0] is sa.DecompositionFailed
    assert _slot(alg) is slot and slot[0] == alg.one().coeffs.tobytes()
    eigs = _count_eig(monkeypatch)
    assert _outcome(lambda: sa.spectral_decompose(alg.element(coeffs))) == first
    assert len(eigs) == lapack and _slot(alg) is slot


def test_the_memo_holds_one_decomposition_per_tol(monkeypatch):
    """Each tol has one slot, of bytes and arrays only, and a miss overwrites it; a slot serves its own tol alone."""
    alg = sa.matrix_algebra(3)
    rng = np.random.default_rng(7)
    hs = [sa.random_selfadjoint(alg, rng) for _ in range(3)]
    eigs = _count_eig(monkeypatch)
    for tol in (sa.DEFAULT_TOL, 1e-7):
        for h in hs:
            sa.spectral_decompose(h, tol)
            assert _slot(alg, tol)[0] == h.coeffs.tobytes()
    assert len(eigs) == 6  # the same inputs at the other tol are solved again
    slots = {key: value for key, value in alg._cache.items() if key[0] == spectral._LAST_DECOMPOSITION}
    assert set(slots) == {(spectral._LAST_DECOMPOSITION, tol) for tol in (sa.DEFAULT_TOL, 1e-7)}
    for bits, lams, ps in slots.values():
        assert isinstance(bits, bytes) and isinstance(lams, np.ndarray) and isinstance(ps, np.ndarray)
    sa.spectral_decompose(alg.element(hs[-1].coeffs.copy()), 1e-7)
    assert len(eigs) == 6


def test_a_returned_projection_cannot_change_a_later_hit(monkeypatch):
    """The slot keeps read-only rows, and every returned projection, on a miss or a hit, is a read-only view of
    them: writing into one raises, and a later hit returns the first solve's bits."""
    alg = sa.matrix_algebra(3)
    h = sa.random_selfadjoint(alg, np.random.default_rng(8))
    first = sa.spectral_decompose(h)
    bits = [(lam, p.coeffs.tobytes()) for lam, p in first.terms]
    eigs = _count_eig(monkeypatch)
    b = alg.element(h.coeffs.copy())
    hit = sa.spectral_decompose(b)
    assert not eigs and hit.source is b
    for dec in (first, hit):
        for p in dec.projections():
            with pytest.raises(ValueError, match="read-only"):
                p.coeffs[0] = 7.0
    total = hit.projection_sum()
    total.coeffs[0] = 7.0  # what callers build from the projections is their own
    assert [(lam, p.coeffs.tobytes()) for lam, p in sa.spectral_decompose(h).terms] == bits
    assert not eigs


def test_a_published_projection_cannot_change_a_later_answer():
    """The pass publishes read-only rows: writing into a returned RP raises, and a later RP is unchanged."""
    alg = sa.matrix_algebra(3)
    sa.analyze(alg)
    e11 = alg.basis_element(0)
    rp = sa.right_projection(e11)
    bits = rp.coeffs.tobytes()
    assert bits == _published(alg)[e11.coeffs.tobytes()].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        rp.coeffs[0] = 7.0
    assert sa.right_projection(e11).coeffs.tobytes() == bits
    assert all(not row.flags.writeable for row in _published(alg).values())


# -- right projections in trace-form coordinates --------------------------------

def _count_solves(monkeypatch):
    """The elements handed to ``spectral_decompose`` from now on, recorded as it is called."""
    solves = []
    solve = spectral.spectral_decompose
    monkeypatch.setattr(spectral, "spectral_decompose", lambda b, tol=sa.DEFAULT_TOL: solves.append(b) or solve(b, tol))
    return solves


def _rank(e):
    """rank L_e of a projection e, as the trace of its regular representation."""
    return int(round(np.trace(e.lmat()).real))


def _rank_deficient_rows(alg, rng):
    """Random elements, and random elements times a spectral projection, so that most RPs are not 1."""
    p = sa.spectral_decompose(sa.random_selfadjoint(alg, rng)).projections()[0]
    return [sa.random_element(alg, rng) * x for x in (alg.one(), p, p, alg.one() - p)] + [p, alg.zero()]


@pytest.mark.parametrize("make", [
    lambda rng: sa.matrix_algebra(3),
    lambda rng: semisimple_instance([3, 2], 1, rng),
    lambda rng: sa.build_group_algebra(sa.dihedral_group(4)),
], ids=["M3", "[3,2]+1", "C[D4]"])
def test_trace_form_rows_match_one_at_a_time_and_the_solver(monkeypatch, make):
    """Each row of a trace-form stack is its stack-of-one answer, and the solver's RP within 1e-12."""
    rng = np.random.default_rng(12)
    alg = make(rng)
    rows = _rank_deficient_rows(alg, rng)
    refs = [sa.spectral_decompose(spectral._selfadjoint_part(a.star() * a)).projection_sum() for a in rows]
    solves = _count_solves(monkeypatch)
    stacked = list(spectral.right_projections(rows))
    assert not solves  # no row went to the solver
    for a, e, ref in zip(rows, stacked, refs):
        np.testing.assert_array_equal(e.coeffs, spectral.right_projection(a).coeffs)
        assert (e - ref).norm() <= 1e-12 * max(1.0, ref.norm())
    ranks = [_rank(e) for e in stacked]
    assert ranks == [_rank(ref) for ref in refs] and len(set(ranks)) > 2


def test_a_projection_that_fixes_a_but_has_the_wrong_trace_falls_back(monkeypatch):
    """Rotate the singular vectors so that e = 1: a e = a, e = e* and e^2 = e hold, tau.e = 9 != rank L_a = 3."""
    alg = sa.matrix_algebra(3)
    a = alg.element([1, 1, 0, 0, 0, 0, 0, 0, 0])  # E11 + E12
    expected = sa.right_projection(a)
    coords = _cached(alg, spectral._trace_coordinates, sa.DEFAULT_TOL)[2]
    w_one = coords[0] @ alg.unit_vector()
    basis = np.linalg.qr(np.column_stack([w_one, np.eye(alg.dim)[:, 1:]]))[0]  # first column along W 1
    lapack = spectral._lapack

    def rotated(fn, mats, rejected):
        out = lapack(fn, mats, rejected)
        if fn is not np.linalg.svd:
            return out
        u, s, vh = out
        return u, s, np.broadcast_to(basis.conj().T, vh.shape)

    monkeypatch.setattr(spectral, "_lapack", rotated)
    e = alg.element(coords[1] @ (basis[:, :3] @ (basis[:, :3].conj().T @ w_one)))  # the mutated e
    assert (e - alg.one()).norm() < 1e-12 and (a * e - a).norm() < 1e-12
    assert spectral._trace_form_projections(alg, a.coeffs[None], coords, sa.DEFAULT_TOL) == [None]
    solves = _count_solves(monkeypatch)
    got = sa.right_projection(a)
    assert len(solves) == 1 and (got - expected).norm() < 1e-12 and _rank(got) == 3


# -- right projections of basis multiples read off the product table ----------

def _table_route_algebras():
    """Monomial algebras with a unit and a diagonal Gram matrix: M1-M7, the 17 group algebras of the benchmark,
    M2 + C[C3], and M2 in a basis rescaled by a positive diagonal."""
    return {
        **{f"M{k}": sa.matrix_algebra(k) for k in range(1, 8)},
        **_group_algebras(),
        "M2+C[C3]": sa.direct_sum(sa.matrix_algebra(2), sa.build_group_algebra(sa.cyclic_group(3))),
        **{f"M2 rescaled s^2={s2:g}": _diagonally_scaled("M2", s2) for s2 in (1e2, 1e4)},
    }


@pytest.mark.parametrize("name", list(_table_route_algebras()))
def test_table_projections_are_the_trace_form_projections(name):
    """For every multiple c e_i with c in {1, 2.5i, -1e3, 1e-5}, the product table gives the trace-form SVD's RP
    within certificate_bound(tol) and with the same rank, and declines the rows the SVD route declines: at
    c = 1e-5 the eigenvalues |c w|^2 of L_{a*a} of an unscaled basis element fall under the zero rule, so
    e = 0 and a e = a fails, although |c w| alone would be significant."""
    alg, tol = _table_route_algebras()[name], sa.DEFAULT_TOL
    _, _, coords, diagonal = _cached(alg, spectral._trace_coordinates, tol)
    assert coords is not None and diagonal is not None and alg._tables is not None
    rows = np.concatenate([np.eye(alg.dim, dtype=complex) * c for c in (1.0, 2.5j, -1e3, 1e-5)])
    table, table_ranks = spectral._table_projections(alg, rows, diagonal, tol)
    svd, svd_ranks, accepted, _ = spectral._svd_projections(alg, rows, coords, tol)
    kept = spectral._certified(alg, rows, table, table_ranks, tol)
    np.testing.assert_array_equal(kept, accepted & spectral._certified(alg, rows, svd, svd_ranks, tol))
    assert kept[0] and not kept.all()
    np.testing.assert_array_equal(table_ranks[kept], svd_ranks[kept])
    assert np.linalg.norm(table[kept] - svd[kept], axis=1).max() <= certificate_bound(tol)
    got = spectral._trace_form_projections(alg, rows, coords, tol)
    assert [found is not None for found in got] == kept.tolist()
    for found, row in zip(got, table):
        if found is not None:
            np.testing.assert_array_equal(found[0].coeffs, row)


@pytest.mark.parametrize("name", ["M3", "C[S3]", "scrambled [2,2]+1"])
def test_svd_projection_ranks_match_the_loop(monkeypatch, name):
    """``_svd_projections`` counts each row's rank over the whole stack in one call, bit for bit what the loop over
    its singular values gave, on full-rank, rank-deficient, tiny and huge rows; and the count gives the loop's
    ranks on a stack with a zero row and NaN rows, as the stacked ``significant`` reads a NaN largest as 1."""
    alg, tol = {"M3": lambda: sa.matrix_algebra(3), "C[S3]": lambda: sa.build_group_algebra(sa.symmetric_group_3()),
                "scrambled [2,2]+1": lambda: semisimple_instance([2, 2], 1, np.random.default_rng(1))}[name](), 1e-9
    rng = np.random.default_rng(6)
    p = sa.spectral_decompose(sa.random_selfadjoint(alg, rng)).projections()[0]
    rows = np.array([x.coeffs * c for x in (sa.random_element(alg, rng), sa.random_element(alg, rng) * p, p)
                     for c in (1.0, 1e-6, 3e4j)])
    values = []
    lapack = spectral._lapack

    def recording(fn, mats, rejected):
        out = lapack(fn, mats, rejected)
        values.append(out[1])
        return out

    monkeypatch.setattr(spectral, "_lapack", recording)
    coords = _cached(alg, spectral._trace_coordinates, tol)[2]
    _, ranks, _, _ = spectral._svd_projections(alg, rows, coords, tol)
    [s] = values
    loop = [np.count_nonzero(significant(row * row, tol)) for row in s]
    assert ranks.tolist() == loop and len(set(loop)) > 1
    s = np.abs(rng.standard_normal((6, 5))) * np.geomspace(1, 1e-12, 5)
    s[1], s[2, 0], s[3] = 0.0, np.nan, np.nan
    np.testing.assert_array_equal(np.count_nonzero(significant(s * s, tol), axis=1),
                                  [np.count_nonzero(significant(row * row, tol)) for row in s])


def _twisted_m2():
    """M2 under the proper involution x -> H^-1 x^H H, H = [[2, 1], [1, 2]]: monomial, but G is not diagonal."""
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    units = np.eye(4).reshape(4, 2, 2)
    star = np.stack([(np.linalg.inv(h) @ m.T @ h).reshape(-1) for m in units], axis=1)
    return sa.StarAlgebra(sa.matrix_algebra(2).mul, star)


def test_the_table_route_declines_what_it_cannot_read(monkeypatch):
    """``right_projections`` hands the table only multiples of one basis element of a monomial algebra with a
    diagonal G: not E11 + E22 of M3, no row of a dense algebra, and no row of M2 under an involution whose G is
    not diagonal. The SVD answers each of those rows, and the solver none."""
    read = []
    table = spectral._table_projections
    monkeypatch.setattr(spectral, "_table_projections",
                        lambda parent, rows, diagonal, tol: read.extend(rows) or table(parent, rows, diagonal, tol))
    solves = _count_solves(monkeypatch)
    m3, twisted = sa.matrix_algebra(3), _twisted_m2()
    dense = semisimple_instance([2], 1, np.random.default_rng(3))
    assert sa.validate(twisted).passed and sa.check_proper(twisted).passed
    coords, diagonal = _cached(twisted, spectral._trace_coordinates, sa.DEFAULT_TOL)[2:]
    assert coords is not None and diagonal is None
    unit = np.eye(9)
    multi = m3.element(unit[0] + unit[4])
    asked = [multi, dense.basis_element(0), dense.basis_element(2), twisted.basis_element(0), twisted.basis_element(1)]
    for a in asked:
        e = sa.right_projection(a)
        assert sa.is_projection(e) and (a * e - a).norm() <= certificate_bound(sa.DEFAULT_TOL)
    assert not read and not solves
    e = sa.right_projection(m3.basis_element(1))  # E12, whose RP is E22
    assert len(read) == 1 and not solves and (e - m3.element(unit[4])).norm() <= 1e-15


def test_a_table_projection_that_misses_a_column_falls_back(monkeypatch):
    """Read E12's singular value in L_E11 as 1e-6 times its own: under the rank rule it drops, and the table's e
    is the unit's E11 coefficient alone. E11 is a projection with E11 e = E11, but tau . e = 3 != 2, so the rank
    certificate alone rejects it, and the SVD answers the row with E11 and hands back its kernel, spanned by the
    6 matrix units E_pq with p != 1."""
    alg, tol = sa.matrix_algebra(3), sa.DEFAULT_TOL
    a = alg.basis_element(0)
    values = spectral._table_singular_values

    def dropped(algebra, xs, diagonal=None):
        out = values(algebra, xs, diagonal)
        out[:, 1] *= 1e-6
        return out

    monkeypatch.setattr(spectral, "_table_singular_values", dropped)
    diagonal = _cached(alg, spectral._trace_coordinates, tol)[3]
    e, ranks = spectral._table_projections(alg, a.coeffs[None], diagonal, tol)
    assert ranks.tolist() == [2] and np.abs(e[0] - a.coeffs).max() <= 1e-15  # e = E11 fixes a
    assert not spectral._certified(alg, a.coeffs[None], e, ranks, tol)[0]
    read = []
    svd = spectral._svd_projections
    monkeypatch.setattr(spectral, "_svd_projections",
                        lambda parent, rows, coords, tol: read.extend(rows) or svd(parent, rows, coords, tol))
    solves = _count_solves(monkeypatch)
    got = sa.right_projection(a)
    assert len(read) == 1 and not solves
    assert (got - a).norm() <= 1e-12 and _rank(got) == 3
    [(e, form)] = spectral._right_projections_and_kernels([a], tol)  # the kernel comes from the SVD
    assert form.func is spectral._svd_kernel and len(read) == 2
    assert subspaces_equal(colspace(form(), tol), np.eye(9)[:, 3:], membership_bound(tol))
