"""Radical, properness, hermitian check, central atoms, block isomorphisms, analyze."""

import json

import numpy as np
import pytest
from test_kernel import ref_unitization

import staralg as sa
from staralg import rickart, structure
from staralg.cli import main
from staralg.instances import (
    _block_matrix_basis,
    diagonal_algebra,
    direct_sum,
    from_matrix_basis,
    matrix_algebra,
    nilpotent_mutant,
    random_unitary,
    semisimple_instance,
    swap_mutant,
)
from staralg.core import _trace_ranks
from staralg.linalg import certificate_bound, subspaces_equal
from staralg.structure import (
    abelian_split,
    block_star_isomorphism,
    matrix_unit_residual,
)


def test_radical_of_semisimple_is_zero():
    assert sa.radical(matrix_algebra(2)) == []
    assert sa.radical(diagonal_algebra(3)) == []


def test_radical_of_unitized_nilpotent():
    rad = sa.radical(sa.unitized_nilpotent())
    assert len(rad) == 1
    x = rad[0]
    assert (x * x).norm() < 1e-10  # the radical here is the nilpotent line


def _non_unital_algebras():
    """Non-unital algebras, each with the coordinates of its nilpotent lines and its radical dimension."""
    part = semisimple_instance([2], 1, np.random.default_rng(4))
    return {
        "C x": (sa.nilpotent_line(), [0], 1),
        "M2 + C + C x": (direct_sum(part, sa.nilpotent_line()), [part.dim], 1),
        "C x + C y": (direct_sum(sa.nilpotent_line(), sa.nilpotent_line()), [0, 1], 2),
    }


@pytest.mark.parametrize("name", list(_non_unital_algebras()))
def test_facts_of_a_non_unital_algebra_are_computed_on_it(name):
    """Radical, spectrum and analyze on A itself match the unitization, and no unitization is cached."""
    alg, lines, radical_dim = _non_unital_algebras()[name]
    assert not alg.is_unital()
    rad = np.array([x.coeffs for x in sa.radical(alg)]).T
    assert subspaces_equal(rad, np.eye(alg.dim)[:, lines], 1e-10)

    big, emb, _ = ref_unitization(alg)
    rng = np.random.default_rng(5)
    for a in [sa.random_element(alg, rng) for _ in range(3)] + [sa.random_selfadjoint(alg, rng)]:
        sp = sa.spectrum(a)
        ref = np.linalg.eigvals(big.left_mat(emb @ a.coeffs))
        assert sp.includes_forced_zero
        assert max(np.min(np.abs(ref - p)) for p in sp.points) <= 1e-10
        assert max(np.min(np.abs(np.array(sp.points) - r)) for r in ref) <= 1e-10

    r = sa.analyze(alg)
    assert (r.unital, r.proper, r.hermitian, r.radical_dim) == (False, False, True, radical_dim)
    assert not [key for key, value in alg._cache.items() if isinstance(value, sa.StarAlgebra)]


def test_check_proper_matrix_algebra():
    report = sa.check_proper(matrix_algebra(3))
    assert report.passed


def test_check_proper_swap_witness():
    report = sa.check_proper(swap_mutant(1))
    assert not report.passed
    # witness element a with a*a = 0 exactly: the first coordinate
    w = report.witness["element"]
    a = swap_mutant(1).element([complex(re, im) for re, im in w])
    assert (a.star() * a).norm() < 1e-9
    assert a.norm() > 0.1


def test_check_hermitian_cases():
    assert sa.check_hermitian(matrix_algebra(2)).passed
    assert sa.check_hermitian(sa.unitized_nilpotent()).passed  # hermitian, not semisimple
    assert not sa.check_hermitian(swap_mutant(1)).passed


def test_quotient_by_radical_dimension():
    alg = nilpotent_mutant(2)  # unitized nilpotent + C^2, radical dim 1
    rad = sa.radical(alg)
    quotient = sa.quotient_by_radical(alg, rad)
    assert quotient.dim == alg.dim - 1
    assert sa.check_proper(quotient).passed


def test_center_of_matrix_algebra():
    c = sa.center(matrix_algebra(2))
    assert len(c) == 1  # scalars only
    z = c[0]
    m = z.coeffs.reshape(2, 2)
    assert np.allclose(m, m[0, 0] * np.eye(2))


def test_central_atoms_direct_sum():
    alg = direct_sum(matrix_algebra(2), diagonal_algebra(2))
    dec = sa.central_atoms(alg)
    assert sorted(dec.block_dims) == [1, 1, 4]
    total = alg.zero()
    for atom in dec.atoms:
        assert (atom - atom * atom).norm() < 1e-9
        assert (atom - atom.star()).norm() < 1e-9
        total = total + atom
    assert np.allclose(total.coeffs, alg.unit_vector())


def test_central_atoms_scrambled():
    rng = np.random.default_rng(13)
    alg = semisimple_instance([3, 2], 2, rng)
    dec = sa.central_atoms(alg, seed=5)
    assert sorted(dec.block_dims) == [1, 1, 4, 9]


def test_abelian_split():
    rng = np.random.default_rng(21)
    alg = semisimple_instance([2], 3, rng)
    h, abelian_dim = abelian_split(alg, seed=2)
    assert sa.is_projection(h)
    assert abelian_dim == 3
    assert np.linalg.matrix_rank((alg.one() - h).lmat(), tol=1e-8) == 4
    # h is central: ha = ah for all basis elements
    for e in alg.basis():
        assert (h * e - e * h).norm() < 1e-8


def test_block_star_isomorphism_matrix_algebra():
    alg = matrix_algebra(3)
    units, residual = block_star_isomorphism(alg.one(), seed=0)
    assert len(units) == 3
    assert residual == matrix_unit_residual(alg.one(), units) < 1e-9


def test_block_star_isomorphism_scrambled():
    rng = np.random.default_rng(17)
    alg = semisimple_instance([3], 0, rng)
    units, residual = block_star_isomorphism(alg.one(), seed=0)
    assert residual == matrix_unit_residual(alg.one(), units) < 1e-8


def test_block_star_isomorphism_rejects_a_commutative_corner():
    """A corner of dimension 2 splits into 2 minimal projections, and 2 * 2 != 2: it is no M_n."""
    with pytest.raises(sa.InternalInconsistency, match="block is not simple"):
        block_star_isomorphism(diagonal_algebra(2).one())
    units, residual = block_star_isomorphism(matrix_algebra(1).one())
    assert len(units) == 1 and residual < 1e-12


def test_block_star_isomorphism_reads_the_corner_dimension_from_the_trace():
    """dim zA is tau . z; where that is no integer, z is no projection at tol, and the rank is ambiguous."""
    alg = direct_sum(matrix_algebra(2), diagonal_algebra(1))
    atoms = sa.central_atoms(alg)
    ranks, off = _trace_ranks(alg, np.array([z.coeffs for z in atoms.atoms]))
    assert ranks.tolist() == atoms.block_dims == [4, 1] and np.all(off < 1e-12)
    with pytest.raises(sa.IllConditioned, match="not an integer rank"):
        block_star_isomorphism(0.7 * matrix_algebra(2).one())


def test_every_dimension_read_from_a_trace_must_be_an_integer(monkeypatch):
    """The minimality and primitivity tests round a trace only within certificate_bound of an integer."""
    alg = direct_sum(matrix_algebra(2), diagonal_algebra(1))
    rng = np.random.default_rng(0)
    # tr(L_p R_p) = 0.49 * 4 for p = 0.7 * 1 in M2
    with pytest.raises(sa.IllConditioned, match="not an integer rank"):
        structure._matrix_units_once(0.7 * matrix_algebra(2).one(), 4, sa.DEFAULT_TOL, rng)
    # a center basis scaled by 0.9 makes dim Z(A) read as 0.81 * 2
    center = structure.center
    monkeypatch.setattr(structure, "center", lambda a, tol: [0.9 * z for z in center(a, tol)])
    with pytest.raises(sa.IllConditioned, match="not an integer rank"):
        sa.central_atoms(alg)


def test_refinement_gives_up_when_nothing_splits(monkeypatch):
    monkeypatch.setattr(structure, "spectral_decompose",
                        lambda b, tol: sa.SpectralDecomposition(b, ()))
    with pytest.raises(sa.DegenerateRandomness):
        sa.central_atoms(direct_sum(matrix_algebra(2), diagonal_algebra(2)))
    with pytest.raises(sa.DegenerateRandomness):
        block_star_isomorphism(matrix_algebra(2).one())


def test_analyze_matrix_algebra_report():
    r = sa.analyze(matrix_algebra(2))
    assert r.dim == 4 and r.unital and r.proper and r.hermitian
    assert r.semisimple and r.weakly_rickart and r.baer
    assert r.block_sizes_nonabelian == [2] and r.abelian_dim == 0
    d = r.to_dict()
    assert d["blocks"] == [2] and d["abelian_dim"] == 0
    assert list(d) == [
        "dim", "unital", "proper", "hermitian", "semisimple", "radical_dim", "weakly_rickart", "baer",
        "abelian_projection_h", "blocks", "abelian_dim", "block_isomorphisms", "abelian_atoms",
        "residuals", "witness", "tol", "seed"]


def test_analyze_swap_mutant():
    r = sa.analyze(swap_mutant(1))
    assert not r.proper and not r.hermitian and r.semisimple
    assert not r.weakly_rickart and not r.baer
    assert r.witness is not None


def test_analyze_nilpotent_mutant():
    r = sa.analyze(nilpotent_mutant(1))
    assert not r.proper and r.hermitian and not r.semisimple
    assert r.radical_dim == 1 and not r.baer


def _no_annihilator_has_a_generator(monkeypatch):
    def non_principal(elements, tol=sa.DEFAULT_TOL):
        return rickart.AnnihilatorResult([], None, False)

    monkeypatch.setattr(rickart, "annihilator", non_principal)


def test_analyze_raises_when_the_baer_guard_fails_on_a_baer_algebra(monkeypatch, tmp_path, capsys):
    """Unital and weakly Rickart is Baer in finite dimension, so a failing guard is an inconsistency."""
    _no_annihilator_has_a_generator(monkeypatch)
    with pytest.raises(sa.InternalInconsistency, match="6 of 6 sampled annihilators"):  # 4 pairs, 2 subsets
        sa.analyze(matrix_algebra(2))
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(sa.algebra_to_json(matrix_algebra(2))))
    assert main(["analyze", str(path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_check_baer_raises_when_its_guard_fails_on_a_baer_algebra(monkeypatch, tmp_path, capsys):
    """A failing guard is no "not Baer" verdict: ``check_baer`` and ``check --property baer`` report an inconsistency."""
    _no_annihilator_has_a_generator(monkeypatch)
    with pytest.raises(sa.InternalInconsistency, match="6 of 6 sampled annihilators"):
        sa.check_baer(matrix_algebra(2))
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(sa.algebra_to_json(matrix_algebra(2))))
    assert main(["check", str(path), "--property", "baer"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("internal inconsistency: unital and weakly Rickart")
    assert "Traceback" not in captured.err


def test_the_baer_guard_raises_when_its_two_routes_disagree(monkeypatch):
    """A pair's generator 1 - RP(h) and the lattice join 1 - RP(e_i) v RP(e_j) are two routes to one projection:
    a join that returns another projection is an inconsistency, and one that cannot be certified ill-conditioned."""
    join = rickart.join
    monkeypatch.setattr(rickart, "join", lambda e, f, tol=sa.DEFAULT_TOL: join(e, f, tol) * 0.0)
    with pytest.raises(sa.InternalInconsistency, match="not 1 - RP"):
        sa.check_baer(matrix_algebra(3))

    def uncertified(e, f, tol=sa.DEFAULT_TOL):
        raise sa.DecompositionFailed("join output failed projection certification", 1.0)

    monkeypatch.setattr(rickart, "join", uncertified)
    with pytest.raises(sa.IllConditioned, match="join fails its certificates"):
        sa.analyze(matrix_algebra(3))


def test_analyze_rejects_malformed():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 1] = 1.0
    c[1, 1, 0] = 1.0
    c[0, 1, 0] = 1.0
    bad = sa.StarAlgebra(c, np.eye(2, dtype=complex))
    with pytest.raises(sa.ValidationFailed):
        sa.analyze(bad)


def test_analyze_block_accounting():
    rng = np.random.default_rng(3)
    alg = semisimple_instance([2, 2, 3], 1, rng)
    r = sa.analyze(alg, seed=4)
    assert sorted(r.block_sizes_nonabelian) == [2, 2, 3]
    assert r.abelian_dim == 1
    assert sum(n * n for n in r.block_sizes_nonabelian) + r.abelian_dim == r.dim
    assert all(n >= 2 for n in r.block_sizes_nonabelian)


def _badly_scaled(s2, seed):
    """M2 + M2 + C in a basis mixed with singular values from 1/s to s: a valid unital input.

    The draws are semisimple_instance's, with the singular values fixed."""
    return from_matrix_basis(_badly_scaled_basis(s2, seed))


def _badly_scaled_basis(s2, seed):
    """The matrices of ``_badly_scaled(s2, seed)``'s basis."""
    rng = np.random.default_rng(seed)
    mats = _block_matrix_basis([2, 2], 1)
    d = mats[0].shape[0]
    u = random_unitary(d, rng)
    mats = [u @ m @ u.conj().T for m in mats]
    n = len(mats)
    a, b = random_unitary(n, rng), random_unitary(n, rng)
    s = np.sqrt(s2)
    stack = np.stack([m.reshape(-1) for m in mats], axis=1) @ (a @ np.diag(np.geomspace(1 / s, s, n)) @ b)
    return [stack[:, i].reshape(d, d) for i in range(n)]


def test_analyze_certifies_blocks_on_a_badly_scaled_basis():
    """s^2 = 1e3: each block's unit is its central atom, taken as it is.

    On this basis a least-squares unit of a block's own constants misses tol.
    """
    r = sa.analyze(_badly_scaled(1e3, 1))
    assert r.baer and r.block_sizes_nonabelian == [2, 2] and r.abelian_dim == 1
    assert r.residuals["matrix_unit_worst"] <= certificate_bound(r.tol)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("s2", [1.0, 1e2, 1e3])
def test_the_block_structure_survives_basis_scaling(s2, seed):
    """Up to s^2 = 1e3 every seed gives blocks [2, 2] + 1; the right projections no longer mis-scale there."""
    r = sa.analyze(_badly_scaled(s2, seed))
    assert r.proper and r.baer and r.block_sizes_nonabelian == [2, 2] and r.abelian_dim == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_failed_central_split_on_a_proper_algebra_is_ill_conditioned(seed, tmp_path, capsys):
    """s^2 = 1e4: check_proper passes, then a central split fails its certificates.

    That is a conditioning failure, not evidence against properness; the CLI exits 1."""
    alg = _badly_scaled(1e4, seed)
    assert sa.check_proper(alg, seed=seed).passed
    with pytest.raises(sa.IllConditioned, match="central split") as raised:
        sa.central_atoms(alg, seed=seed)
    assert raised.value.residual > certificate_bound(sa.DEFAULT_TOL)
    assert isinstance(raised.value.__cause__, sa.DecompositionFailed)
    assert raised.value.residual == raised.value.__cause__.residual
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(sa.algebra_to_json(alg)))
    assert main(["--seed", str(seed), "analyze", str(path)]) == 1
    assert "central split" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("s2", [1e5, 1e6])
def test_a_negative_properness_verdict_needs_a_certified_witness(s2, seed, tmp_path, capsys):
    """s^2 >= 1e5: the Gram matrix loses positive definiteness to rounding. No candidate has
    a*a = 0 within the bound, and G's least eigenvalue is within what rounding can reach, so
    analyze raises IllConditioned and the CLI exits 1."""
    alg = _badly_scaled(s2, seed)
    with pytest.raises(sa.IllConditioned, match="no witness") as raised:
        sa.analyze(alg, seed=seed)
    assert raised.value.residual > certificate_bound(sa.DEFAULT_TOL)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(sa.algebra_to_json(alg)))
    assert main(["--seed", str(seed), "analyze", str(path)]) == 1
    assert "no witness" in capsys.readouterr().err


# name: (construction, its non-abelian blocks, its abelian dimension)
_SCALED = {
    "M2": (lambda: matrix_algebra(2), [2], 0),
    "M3": (lambda: matrix_algebra(3), [3], 0),
    "[2, 2] + 1": (lambda: semisimple_instance([2, 2], 1, np.random.default_rng(1)), [2, 2], 1),
}
_WRONG_REPORT = pytest.mark.xfail(
    raises=AssertionError,
    reason="a wrong report with exit 0: proper=False, semisimple=False, radical_dim = dim, as the "
           "trace form's eigenvalues (about c^2) fall below the absolute cut-off")
_INCONSISTENT = pytest.mark.xfail(
    raises=sa.InternalInconsistency,
    reason="InternalInconsistency: check_proper passes, but a right projection of norm about 1/c misses "
           "the absolute certificate_bound, so the weakly-Rickart pass fails")
_DEGENERATE = pytest.mark.xfail(
    raises=sa.DegenerateRandomness,
    reason="DegenerateRandomness: projections of norm about 1/c fail the absolute zero-projection test")


def _scaled_cases():
    for name in _SCALED:
        for c in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8):
            marks = (_WRONG_REPORT if c < 1e-5 else _INCONSISTENT if c == 1e-4
                     else _DEGENERATE if c == 1e8 and name != "[2, 2] + 1" else ())
            yield pytest.param(name, c, marks=marks, id=f"{name}-{c:g}")


@pytest.mark.parametrize("name, c", _scaled_cases())
def test_scaled_constants_give_the_construction_or_ill_conditioned(name, c, tmp_path, capsys):
    """StarAlgebra(b.mul * c, b.star) is a valid *-isomorphic copy of b: analyze and the CLI must
    report b's structure, or refuse with IllConditioned (exit 1)."""
    make, blocks, abelian_dim = _SCALED[name]
    b = make()
    alg = sa.StarAlgebra(b.mul * c, b.star)
    try:
        r = sa.analyze(alg)
    except sa.IllConditioned as exc:
        assert np.isfinite(exc.residual)  # a zero projection reports its norm, not NaN
        refused = True
    else:
        refused = False
        got = (r.proper, r.hermitian, r.semisimple, r.radical_dim, r.weakly_rickart, r.baer)
        assert got == (True, True, True, 0, True, True)
        assert (sorted(r.block_sizes_nonabelian), r.abelian_dim) == (blocks, abelian_dim)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(sa.algebra_to_json(alg)))
    assert main(["analyze", str(path)]) == (1 if refused else 0)
    if not refused:
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(r.to_dict()))


def _rebased(alg, p):
    """alg in the basis f_a = sum_i p[i, a] e_i."""
    p_inv = np.linalg.inv(p)
    return sa.StarAlgebra(alg.products(p.T, p.T) @ p_inv.T, p_inv @ alg.star @ np.conj(p))


def _mixed(alg, seed):
    """alg in a random basis with singular values in [0.5, 2], as semisimple_instance mixes."""
    rng = np.random.default_rng(seed)
    n = alg.dim
    p = random_unitary(n, rng) @ np.diag(0.5 + 1.5 * rng.random(n)) @ random_unitary(n, rng)
    return _rebased(alg, p)


_DIAGONAL_WRONG = pytest.mark.xfail(
    raises=AssertionError,
    reason="a wrong report with exit 0: proper=False, baer=False, as the trace form's eigenvalues run from "
           "about 1/s^2 to s^2 and the least fall under the relative cut-off tol * s^2")
_DIAGONAL_INCONSISTENT = pytest.mark.xfail(
    raises=sa.InternalInconsistency,
    reason="InternalInconsistency: the trace form reads as not proper, as above, while the sampled "
           "selfadjoint spectra are real")
# (name, s^2): the pinned outcome
_DIAGONAL_PINS = {
    ("M2", 1e6): _DIAGONAL_WRONG, ("M2", 1e8): _DIAGONAL_WRONG, ("M2", 1e12): _DIAGONAL_WRONG,
    ("[2, 2] + 1", 1e12): _DIAGONAL_WRONG,
    ("M3", 1e8): _DIAGONAL_INCONSISTENT, ("M3", 1e12): _DIAGONAL_INCONSISTENT,
}


def _diagonally_scaled(name, s2):
    """The construction ``name`` in the basis f_i = d_i e_i, d a permutation of geomspace(1/s, s, n)."""
    alg = _SCALED[name][0]()
    s = np.sqrt(s2)
    return _rebased(alg, np.diag(np.random.default_rng(0).permutation(np.geomspace(1 / s, s, alg.dim))))


def _diagonal_cases():
    for name in _SCALED:
        for s2 in (1e2, 1e4, 1e6, 1e8, 1e12):
            yield pytest.param(name, s2, marks=_DIAGONAL_PINS.get((name, s2), ()), id=f"{name}-{s2:g}")


@pytest.mark.parametrize("name, s2", _diagonal_cases())
def test_a_diagonal_rescaling_gives_the_construction_or_ill_conditioned(name, s2):
    """A rebasing by a positive diagonal is a valid *-isomorphic copy: analyze must report the
    construction's structure, or refuse with IllConditioned."""
    _, blocks, abelian_dim = _SCALED[name]
    alg = _diagonally_scaled(name, s2)
    assert sa.validate(alg).passed
    try:
        r = sa.analyze(alg)
    except sa.IllConditioned as exc:
        assert np.isfinite(exc.residual)
        return
    assert (r.proper, r.hermitian, r.semisimple, r.radical_dim, r.weakly_rickart, r.baer) == (
        True, True, True, 0, True, True)
    assert (sorted(r.block_sizes_nonabelian), r.abelian_dim) == (blocks, abelian_dim)


@_DIAGONAL_WRONG
def test_the_cli_does_not_exit_0_with_a_wrong_report_on_diagonally_scaled_m2(tmp_path, capsys):
    """M2 at s^2 = 1e6: staralg analyze prints the construction's report, or exits 1."""
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(sa.algebra_to_json(_diagonally_scaled("M2", 1e6))))
    code = main(["analyze", str(path)])
    assert code in (0, 1)
    if code == 0:
        report = json.loads(capsys.readouterr().out)
        assert (report["proper"], report["baer"], report["blocks"]) == (True, True, [2])


def _indefinite_matrix_algebra(signs):
    """M_d with the involution x -> H x^H H, H = diag(signs): not proper when the signs differ."""
    h = np.diag(np.asarray(signs, dtype=complex))
    mats = _block_matrix_basis([len(signs)], 0)
    alg = from_matrix_basis(mats)
    stars = np.stack([(h @ m.conj().T @ h).reshape(-1) for m in mats], axis=1)
    coords = np.linalg.lstsq(np.stack([m.reshape(-1) for m in mats], axis=1), stars, rcond=None)[0]
    return sa.StarAlgebra(alg.products(np.eye(alg.dim), np.eye(alg.dim)), coords)


def _nilpotent_chain(m):
    """Span of x, x^2, ..., x^m with x^(m+1) = 0 and x* = x: rad A^2 != 0 for m >= 3."""
    c = np.zeros((m, m, m), dtype=complex)
    for i in range(m):
        for j in range(m - 1 - i):
            c[i, j, i + j + 1] = 1.0
    return sa.StarAlgebra(c, np.eye(m, dtype=complex))


_INDEFINITE = {
    "C[Z2], g* = -g": lambda: _rebased(swap_mutant(1), np.array([[1, 1], [1, -1]], dtype=complex)),
    "M2, H = diag(1, -1)": lambda: _indefinite_matrix_algebra([1, -1]),
    "M3, H = diag(1, -1, 1) mixed": lambda: _mixed(_indefinite_matrix_algebra([1, -1, 1]), 0),
    "swap + M2 mixed": lambda: _mixed(direct_sum(swap_mutant(1), matrix_algebra(2)), 1),
    "swap + C x mixed": lambda: _mixed(direct_sum(swap_mutant(1), sa.nilpotent_line()), 2),
}


@pytest.mark.parametrize("name", sorted(_INDEFINITE))
def test_a_clearly_indefinite_trace_form_is_a_negative_verdict(name, tmp_path, capsys):
    """Valid non-proper input whose null elements lie along no basis vector or Gram eigenvector.

    G's least eigenvalue is far below what rounding can reach, so the radical quotient that
    check_hermitian checks is not proper, with its best witness marked uncertified (for
    "swap + C x" the quotient is built in nullspace's basis), analyze answers proper=false
    and the CLI exits 0."""
    alg = _INDEFINITE[name]()
    assert sa.validate(alg).passed
    assert not sa.check_proper(alg).passed
    witness = sa.check_hermitian(alg).witness["quotient_check"]
    assert witness["certified"] is False
    assert witness["norm_a_star_a"] > certificate_bound(sa.DEFAULT_TOL)
    r = sa.analyze(alg)
    assert not r.proper and not r.hermitian and not r.baer
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(sa.algebra_to_json(alg)))
    assert main(["analyze", str(path)]) == 0
    assert '"proper": false' in capsys.readouterr().out


def test_the_null_element_of_c_z2_is_not_proper():
    """C[Z2] with g* = -g in the basis {e1 + e2, e1 - e2}: e1 = (f1 + f2)/2 has e1* e1 = 0."""
    alg = _INDEFINITE["C[Z2], g* = -g"]()
    e1 = alg.element([0.5, 0.5])
    assert (e1.star() * e1).norm() == 0.0
    assert sa.check_proper(alg).details["gram_min_eig"] < -1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m", [3, 5])
def test_a_radical_witness_is_an_iterated_star_square(m, seed):
    """rad A = span{x, ..., x^m} in a mixed basis: G is only semidefinite and no candidate of the
    first round has a*a = 0, but the last nonzero star-square of one does, and it is certified."""
    alg = _mixed(sa.unitize(_nilpotent_chain(m)), seed)
    report = sa.check_proper(alg)
    assert not report.passed and "certified" not in report.witness
    a = alg.element([complex(re, im) for re, im in report.witness["element"]])
    assert (a.star() * a).norm() <= certificate_bound(sa.DEFAULT_TOL)
    assert a.norm() == pytest.approx(1.0)


_DEEP_RADICALS = {
    "unitize x..x^3": (lambda: sa.unitize(_nilpotent_chain(3)), 3),
    "unitize x..x^4": (lambda: sa.unitize(_nilpotent_chain(4)), 4),
    "unitize x..x^5": (lambda: sa.unitize(_nilpotent_chain(5)), 5),
    "M2 + x..x^4": (lambda: direct_sum(matrix_algebra(2), _nilpotent_chain(4)), 4),
    "x..x^4": (lambda: _nilpotent_chain(4), 4),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(_DEEP_RADICALS))
def test_a_radical_of_index_four_or_more_is_hermitian(name, seed):
    """Valid hermitian input whose radical is nilpotent of index m + 1 >= 4, in a mixed basis.

    In A itself a selfadjoint element's repeated eigenvalue splits by about eps^(1/m), which reads
    as non-real spectrum; the guard samples A / rad, where sigma_A(b) = sigma_{A/rad}(b + rad)."""
    make, m = _DEEP_RADICALS[name]
    alg = _mixed(make(), seed)
    r = sa.analyze(alg)
    assert not r.proper and r.hermitian and not r.semisimple and r.radical_dim == m
    assert sa.check_hermitian(alg).worst_residual <= certificate_bound(sa.DEFAULT_TOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("s2", [1.0, 1e2, 1e3, 1e4])
def test_the_cstar_norm_is_certified_on_a_badly_scaled_basis(s2, seed):
    """Each |a| is the operator norm of a's matrix within the bound, or raises IllConditioned.

    At s^2 = 1e4 the uncertified value was off by up to 5e-5; up to 1e3 no call raises."""
    mats = np.array(_badly_scaled_basis(s2, seed))
    alg = from_matrix_basis(mats)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        a = sa.random_element(alg, rng)
        expected = np.linalg.norm(np.tensordot(a.coeffs, mats, axes=1), 2)
        try:
            got = sa.cstar_norm(a)
        except sa.IllConditioned:
            assert s2 > 1e3
            continue
        assert abs(got - expected) <= certificate_bound(sa.DEFAULT_TOL) * max(1.0, expected)


def test_reported_matrix_units_hold_in_the_algebra():
    """The units in the JSON report are elements of A: relations, sums to atoms, and cross-block products."""
    alg = semisimple_instance([2, 2, 3], 1, np.random.default_rng(3))
    d = sa.analyze(alg, seed=4).to_dict()
    bound = certificate_bound(d["tol"])

    def coeffs(pairs):
        return np.array([complex(re, im) for re, im in pairs])

    systems = []
    for iso in d["block_isomorphisms"]:
        k = iso["size"]
        units = np.array([[coeffs(v) for v in row] for row in iso["matrix_units"]])  # [p, q, :]
        flat = units.reshape(k * k, alg.dim)
        prods = alg.products(flat, flat).reshape(k, k, k, k, -1)
        expected = np.einsum("qr,psx->pqrsx", np.eye(k), units)  # u_pq u_rs = delta_qr u_ps
        assert np.max(np.linalg.norm(prods - expected, axis=-1)) <= bound
        stars = alg.star_coeffs(flat).reshape(units.shape)
        assert np.max(np.linalg.norm(stars - units.transpose(1, 0, 2), axis=-1)) <= bound
        assert np.linalg.norm(np.trace(units) - coeffs(iso["atom"])) <= bound
        systems.append(flat)
    assert sorted(len(flat) for flat in systems) == [4, 4, 9]
    for i, x in enumerate(systems):
        for y in systems[i + 1:]:
            assert np.max(np.linalg.norm(alg.products(x, y), axis=-1)) <= bound
            assert np.max(np.linalg.norm(alg.products(y, x), axis=-1)) <= bound


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_analyze_computes_each_fact_once(monkeypatch):
    wr_passes = _count_calls(monkeypatch, rickart, "_weakly_rickart_pass")
    proper_searches = _count_calls(monkeypatch, structure, "_check_proper")
    isomorphisms = _count_calls(monkeypatch, structure, "block_star_isomorphism")
    residuals = _count_calls(monkeypatch, structure, "matrix_unit_residual")
    alg = semisimple_instance([2, 2], 1, np.random.default_rng(7))
    r = sa.analyze(alg)
    assert r.baer and r.block_sizes_nonabelian == [2, 2] and r.abelian_dim == 1
    assert len(wr_passes) == 1      # check_baer reuses analyze's pass
    assert len(proper_searches) == 1  # check_hermitian reuses it on a semisimple algebra
    assert len(isomorphisms) == len(r.block_sizes_nonabelian)  # one corner zA per non-abelian block
    assert len(residuals) == len(r.block_sizes_nonabelian)


def test_memo_key_covers_every_argument(monkeypatch):
    wr_passes = _count_calls(monkeypatch, rickart, "_weakly_rickart_pass")
    radicals = _count_calls(monkeypatch, structure, "_radical")
    alg = matrix_algebra(2)
    first = sa.check_weakly_rickart(alg)
    sa.check_weakly_rickart(alg, seed=1)
    sa.check_weakly_rickart(alg, tol=1e-8)
    assert len(wr_passes) == 3
    assert sa.check_weakly_rickart(alg, 1e-9, 0) is first
    assert len(wr_passes) == 3
    sa.radical(alg)
    sa.radical(alg, tol=1e-8)
    sa.radical(alg)
    assert len(radicals) == 2
