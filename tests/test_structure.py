"""Radical, properness, hermitian check, central atoms, block isomorphisms, analyze."""

import json

import numpy as np
import pytest

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
from staralg.linalg import certificate_bound
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


def test_analyze_raises_when_the_baer_guard_fails_on_a_baer_algebra(monkeypatch, tmp_path, capsys):
    """Unital and weakly Rickart is Baer in finite dimension, so a failing guard is an inconsistency."""
    def non_principal(elements, tol=sa.DEFAULT_TOL):
        return rickart.AnnihilatorResult([], None, False)

    monkeypatch.setattr(rickart, "annihilator", non_principal)
    with pytest.raises(sa.InternalInconsistency, match="9 of 9 sampled annihilators"):
        sa.analyze(matrix_algebra(2))
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(sa.algebra_to_json(matrix_algebra(2))))
    assert main(["analyze", str(path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


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


def test_analyze_certifies_blocks_on_a_badly_scaled_basis():
    """M2 + M2 + C mixed with singular values from 1/s to s, s^2 = 1e3: a valid unital input.

    Each block's unit is its central atom, taken as it is: on this basis a
    least-squares unit of a block's own constants misses tol.
    """
    rng = np.random.default_rng(1)  # semisimple_instance's draws, with the singular values fixed
    mats = _block_matrix_basis([2, 2], 1)
    d = mats[0].shape[0]
    u = random_unitary(d, rng)
    mats = [u @ m @ u.conj().T for m in mats]
    n = len(mats)
    a, b = random_unitary(n, rng), random_unitary(n, rng)
    s = np.sqrt(1e3)
    stack = np.stack([m.reshape(-1) for m in mats], axis=1) @ (a @ np.diag(np.geomspace(1 / s, s, n)) @ b)
    alg = from_matrix_basis([stack[:, i].reshape(d, d) for i in range(n)])
    r = sa.analyze(alg)
    assert r.baer and r.block_sizes_nonabelian == [2, 2] and r.abelian_dim == 1
    assert r.residuals["matrix_unit_worst"] <= certificate_bound(r.tol)


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
