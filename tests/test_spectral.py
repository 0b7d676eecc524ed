"""Spectral decompositions, RP/LP, quasi-inverse, positive sqrt, EP witness, C*-norm."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import _random_algebras, ref_unitization

import staralg as sa
from staralg import rickart, spectral, structure
from staralg.core import _cached
from staralg.instances import nilpotent_mutant, semisimple_instance, swap_mutant
from staralg.linalg import relative_bound


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

_PHASES = ("pass", "guard", "other")


def _record_right_projections(monkeypatch):
    """The coefficient bytes of every row ``right_projections`` is asked for, and of every row it solves.

    A row is solved when the trace-form stack accepts it or the solver is called
    on it. Each list is kept by phase: "pass" inside the weakly-Rickart pass,
    "guard" inside ``annihilator`` (the Baer guard's subsets) and "other" elsewhere."""
    phase = ["other"]
    asked, solved = ({name: [] for name in _PHASES} for _ in range(2))
    ask, stack, solve = spectral.right_projections, spectral._trace_form_projections, spectral._solved_right_projection

    def in_phase(name, fn):
        def run(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return run

    def asking(xs, tol=sa.DEFAULT_TOL):
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
    for module in (spectral, rickart):
        monkeypatch.setattr(module, "right_projections", asking)
    monkeypatch.setattr(spectral, "_trace_form_projections", stacking)
    monkeypatch.setattr(spectral, "_solved_right_projection", solving)
    return asked, solved


def _published(alg, tol=sa.DEFAULT_TOL):
    return alg._cache[(spectral._PUBLISHED_RPS, tol)]


def _basis_rows(alg):
    return {e.coeffs.tobytes() for e in alg.basis()}


@pytest.mark.parametrize("make", [
    lambda: sa.matrix_algebra(3),
    lambda: sa.build_group_algebra(sa.symmetric_group_3()),
], ids=["M3", "C[S3]"])
def test_analyze_runs_the_solver_once_per_distinct_input(monkeypatch, make):
    """The pass solves each basis row once; the guard's pairs read them from its table."""
    alg = make()
    asked, solved = _record_right_projections(monkeypatch)
    sa.analyze(alg)
    basis = _basis_rows(alg)
    every = [row for name in _PHASES for row in solved[name]]
    assert Counter(row for row in every if row in basis) == Counter(basis)
    assert basis <= set(solved["pass"])
    assert len(basis & set(asked["guard"])) >= 3  # the pairs' e_i
    assert not basis & set(solved["guard"])


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
    """The guard's pairs ask for RP(e_i) again; none of its misses repeats one of the pass.

    One row is solved twice on M3. The pairs {E_ab, E_cd} with b != d join RP(E_ab) = E_bb and
    RP(E_cd) as RP(E_bb - E_bb E_dd), an input that equals E_bb but, being computed, has other
    coefficient bytes than e_i; two such pairs with the same b ask for it twice. The table holds
    the pass's rows only, so the second is solved afresh, to the same bits."""
    alg = sa.matrix_algebra(3)
    asked, solved = _record_right_projections(monkeypatch)
    assert sa.analyze(alg).baer
    basis = _basis_rows(alg)
    assert basis <= set(solved["pass"])
    assert len(basis & set(asked["guard"])) >= 3  # the e_i of the guard's pairs
    assert not set(solved["guard"]) & set(solved["pass"])
    every = Counter(row for name in _PHASES for row in solved[name])
    repeated = [row for row, count in every.items() if count > 1]
    assert len(repeated) <= 1 and not set(repeated) & basis
    assert all(every[row] == 2 and row in solved["guard"] for row in repeated)


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
    monkeypatch.setattr(rickart, "_PUBLISHED_RPS", "unread right projections")
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
    ask = rickart.right_projections

    def asking(xs, tol):
        seen.append(xs)
        return ask(xs, tol)

    monkeypatch.setattr(rickart, "right_projections", asking)
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
