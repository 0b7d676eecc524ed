"""The product kernel against the einsum contractions it replaced, and one home for it."""

import re
from pathlib import Path

import numpy as np
import pytest

import staralg as sa
from staralg import spectral, structure


# -- the reference: the contractions as written before the kernel --------------

def ref_left_mat(c, a):
    return np.einsum("i,ijk->kj", a, c)


def ref_right_mat(c, a):
    return np.einsum("j,ijk->ki", a, c)


def ref_mul_coeffs(c, a, b):
    return np.einsum("i,j,ijk->k", a, b, c)


def ref_defects(c, s, unit):
    """Associativity, involution and unit defects, as ``validate`` computed them."""
    n = c.shape[0]
    left = np.einsum("ijm,mkl->ijkl", c, c)
    right = np.einsum("jkm,iml->ijkl", c, c)
    assoc = float(np.max(np.abs(left - right)))
    dstar = float(np.max(np.abs(s @ np.conj(s) - np.eye(n))))
    lhs = np.einsum("kl,ijl->ijk", s, np.conj(c))
    rhs = np.einsum("aj,bi,abk->ijk", s, s, c)
    inv = max(dstar, float(np.max(np.abs(lhs - rhs))))
    unit_defect = 0.0
    if unit is not None:
        for e in np.eye(n):
            unit_defect = max(unit_defect, float(np.linalg.norm(ref_mul_coeffs(c, unit, e) - e)),
                              float(np.linalg.norm(ref_mul_coeffs(c, e, unit) - e)))
    return assoc, inv, unit_defect


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_algebras():
    """Random complex constants (not associative), one of them from a transposed, non-contiguous mul."""
    rng = np.random.default_rng(11)
    out = []
    for n in (1, 3, 5, 8):
        out.append(sa.StarAlgebra(_random_complex(rng, n, n, n), _random_complex(rng, n, n),
                                  unit=_random_complex(rng, n)))
    mul = _random_complex(rng, 6, 6, 6).transpose(2, 0, 1)
    assert not mul.flags["C_CONTIGUOUS"]
    out.append(sa.StarAlgebra(mul, _random_complex(rng, 6, 6)))
    out.append(sa.semisimple_instance([2, 2], 1, rng))
    return out


def _close(actual, expected):
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    worst = float(np.max(np.abs(actual - expected), initial=0.0))
    return actual.shape == expected.shape and worst <= 1e-12 * scale


_IDS = ["n1", "n3", "n5", "n8", "transposed", "M2+M2+C"]


@pytest.mark.parametrize("alg", _random_algebras(), ids=_IDS)
def test_kernel_matches_the_einsum_reference(alg):
    rng = np.random.default_rng(5)
    n = alg.dim
    c = np.array(alg.mul)
    xs, ys = _random_complex(rng, 4, n), _random_complex(rng, 3, n)
    for a in xs:
        assert _close(alg.left_mat(a), ref_left_mat(c, a))
        assert _close(alg.right_mat(a), ref_right_mat(c, a))
        for b in ys:
            assert _close(alg.mul_coeffs(a, b), ref_mul_coeffs(c, a, b))
    # stacks give one operator or product per row
    assert _close(alg.left_mat(xs), np.array([ref_left_mat(c, a) for a in xs]))
    assert _close(alg.right_mat(xs), np.array([ref_right_mat(c, a) for a in xs]))
    assert _close(alg.products(xs, ys), np.array([[ref_mul_coeffs(c, a, b) for b in ys] for a in xs]))


@pytest.mark.parametrize("alg", _random_algebras(), ids=_IDS)
def test_validate_defects_match_the_einsum_reference(alg):
    report = sa.validate(alg)
    expected = ref_defects(np.array(alg.mul), alg.star, alg.unit)
    got = (report.associativity_defect, report.involution_defect, report.unit_defect)
    scale = max(1.0, float(np.max(np.abs(alg.mul))) ** 2)
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-12 * max(scale, e)


def _loop_matrix_unit_residual(block, units):
    """``matrix_unit_residual`` as one product at a time, the reference for the batched form."""
    n, c, one = len(units), np.array(block.mul), block.one().coeffs
    worst = 0.0
    for p in range(n):
        for q in range(n):
            worst = max(worst, float(np.linalg.norm(block.star @ np.conj(units[p][q]) - units[q][p])))
            for r in range(n):
                for s in range(n):
                    expect = units[p][s] if q == r else 0.0
                    prod = ref_mul_coeffs(c, units[p][q], units[r][s])
                    worst = max(worst, float(np.linalg.norm(prod - expect)))
    return max(worst, float(np.linalg.norm(sum(units[p][p] for p in range(n)) - one)))


def _loop_compress(algebra, u):
    """``_compress``'s constants and closure residual, one product at a time."""
    k, c = u.shape[1], np.array(algebra.mul)
    out = np.zeros((k, k, k), dtype=complex)
    worst = 0.0
    for i in range(k):
        for j in range(k):
            prod = ref_mul_coeffs(c, u[:, i], u[:, j])
            out[i, j] = u.conj().T @ prod
            worst = max(worst, float(np.linalg.norm(u @ out[i, j] - prod)))
    return out, worst


def test_batched_sites_match_their_loops():
    rng = np.random.default_rng(3)
    alg = sa.semisimple_instance([3], 1, rng)
    block = sa.central_atoms(alg).blocks[0].algebra
    units, _ = structure.block_star_isomorphism(block)
    exact = [[x.coeffs for x in row] for row in units]
    scale = [1.0, 2.0, 4.0]
    broken = {  # each system breaks the relations named
        "all": [[v + 1e-6 * _random_complex(rng, block.dim) for v in row] for row in exact],
        "star only": [[scale[p] / scale[q] * exact[p][q] for q in range(3)] for p in range(3)],
        "unit sum only": [row[:2] for row in exact[:2]],
    }
    for name, system in broken.items():
        expected = _loop_matrix_unit_residual(block, system)
        got = structure.matrix_unit_residual(block, [[block.element(v) for v in row] for row in system])
        assert 1e-7 < expected and abs(got - expected) <= 1e-12, name  # units have norm ~1

    u = np.linalg.qr(_random_complex(rng, alg.dim, 4))[0]  # a span that is not closed
    sub, worst = structure._compress(alg, u, None)
    ref_c, ref_worst = _loop_compress(alg, u)
    assert _close(sub.mul, ref_c) and abs(worst - ref_worst) <= 1e-12 * max(1.0, ref_worst)

    center = np.array([z.coeffs for z in sa.center(alg)]).T
    eye = np.eye(alg.dim)
    stack = np.concatenate([ref_left_mat(alg.mul, e) - ref_right_mat(alg.mul, e) for e in eye])
    ref = sa.linalg.nullspace(stack, 1e-9)
    assert _close(center @ center.conj().T, ref @ ref.conj().T)


def _loop_certificate_residual(dec):
    """``spectral._certify``'s residual, one product at a time."""
    ps, b = dec.projections(), dec.source
    worst = max(max((p - p.star()).norm(), (p - p * p).norm()) for p in ps)
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            if i != j:
                worst = max(worst, (p * q).norm())
    return max(worst, (b - dec.map_values(lambda lam: lam)).norm() / max(1.0, b.norm()))


def test_decomposition_certificate_matches_its_loop():
    m2 = sa.matrix_algebra(2)
    e11, e12, e21, e22 = m2.basis()
    q = 0.5 * (e11 + e12 + e21 + e22)  # the projection onto (1, 1) / sqrt 2
    broken = {  # each decomposition breaks the relation named
        "selfadjoint": [(1.0, e11 + e12)],
        "idempotent": [(1.0, 2.0 * e11)],
        "orthogonal": [(1.0, e11), (2.0, q)],
    }
    for name, terms in broken.items():
        dec = sa.SpectralDecomposition(e11, tuple(terms))
        dec = sa.SpectralDecomposition(dec.map_values(lambda lam: lam), dec.terms)
        expected = _loop_certificate_residual(dec)
        assert expected > 0.5, name
        with pytest.raises(sa.DecompositionFailed, match=re.escape(f"(residual {expected:.3e})")):
            spectral._certify(dec, 1e-9)
    spectral._certify(sa.SpectralDecomposition(e11 + 2.0 * e22, ((1.0, e11), (2.0, e22))), 1e-9)
    with pytest.raises(sa.DecompositionFailed, match="zero projection"):
        spectral._certify(sa.SpectralDecomposition(e11, ((1.0, e11), (2.0, 0.0 * e22))), 1e-9)


def test_mul_is_stored_contiguous():
    mul = np.zeros((3, 3, 3), dtype=complex).transpose(1, 2, 0)
    alg = sa.StarAlgebra(mul, np.eye(3))
    assert alg.mul.flags["C_CONTIGUOUS"]


def test_no_einsum_in_the_package():
    hits = [f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(Path(sa.__file__).parent.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if "einsum" in line]
    assert not hits, "products outside the kernel:\n" + "\n".join(hits)
