"""The product kernel and the batched decompositions against the code they replaced, and one home for it."""

import ast
import gc
import re
import tracemalloc
import types
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import staralg as sa
from staralg import core, groups, rickart, spectral, structure
from staralg.instances import nilpotent_mutant, swap_mutant
from staralg.linalg import nullspace, relative_bound, subspaces_equal


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
    assert _close(alg.row_products(xs[:3], ys), np.array([ref_mul_coeffs(c, a, b) for a, b in zip(xs, ys)]))


@pytest.mark.parametrize("alg", _random_algebras(), ids=_IDS)
def test_validate_defects_match_the_einsum_reference(alg):
    report = sa.validate(alg)
    expected = ref_defects(np.array(alg.mul), alg.star, alg.unit)
    got = (report.associativity_defect, report.involution_defect, report.unit_defect)
    scale = max(1.0, float(np.max(np.abs(alg.mul))) ** 2)
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-12 * max(scale, e)


def _loop_matrix_unit_residual(atom, units):
    """``matrix_unit_residual`` as one product at a time, the reference for the batched form."""
    alg = atom.parent
    n, c, one = len(units), np.array(alg.mul), atom.coeffs
    worst = 0.0
    for p in range(n):
        for q in range(n):
            worst = max(worst, float(np.linalg.norm(alg.star @ np.conj(units[p][q]) - units[q][p])))
            for r in range(n):
                for s in range(n):
                    expect = units[p][s] if q == r else 0.0
                    prod = ref_mul_coeffs(c, units[p][q], units[r][s])
                    worst = max(worst, float(np.linalg.norm(prod - expect)))
    return max(worst, float(np.linalg.norm(sum(units[p][p] for p in range(n)) - one)))


def _loop_compress(algebra, u):
    """The constants of A compressed to span(u), as ``quotient_by_radical`` forms them, one product at a time."""
    k, c = u.shape[1], np.array(algebra.mul)
    out = np.zeros((k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            out[i, j] = u.conj().T @ ref_mul_coeffs(c, u[:, i], u[:, j])
    return out


# -- the sites that read ``mul`` before the kernel was its only reader, as they were written

def ref_unit_solution(c):
    n = c.shape[0]
    lhs = np.concatenate([c.reshape(n, n * n).T, c.transpose(1, 0, 2).reshape(n, n * n).T])
    rhs = np.concatenate([np.eye(n).reshape(n * n), np.eye(n).reshape(n * n)]).astype(complex)
    u, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return u, float(np.linalg.norm(lhs @ u - rhs)) / np.sqrt(2 * n)


def ref_trace_form(c):
    n = c.shape[0]
    return c.reshape(n, n * n) @ c.transpose(0, 2, 1).reshape(n, n * n).T


def ref_unitize_mul(c):
    n = c.shape[0]
    out = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    out[0, 0, 0] = 1.0
    for i in range(n):
        out[0, i + 1, i + 1] = 1.0
        out[i + 1, 0, i + 1] = 1.0
    out[1:, 1:, 1:] = c
    return out


def ref_unitization(alg, tol=1e-9):
    """A unital algebra holding alg, its embedding matrix and its unit's coefficients.

    Built with ``sa.unitize`` and a 0/1 embedding matrix: a reference in the
    unitization for facts the code under test computes on alg itself."""
    u = alg.unit_vector(tol)
    if u is not None:
        return alg, np.eye(alg.dim, dtype=complex), u
    big = sa.unitize(alg)
    emb = np.zeros((alg.dim + 1, alg.dim), dtype=complex)
    emb[1:, :] = np.eye(alg.dim)
    return big, emb, big.unit


def ref_direct_sum_mul(c, d):
    n, m = c.shape[0], d.shape[0]
    out = np.zeros((n + m, n + m, n + m), dtype=complex)
    out[:n, :n, :n] = c
    out[n:, n:, n:] = d
    return out


def ref_json_mul(c):
    return [[int(i), int(j), int(k), float(c[i, j, k].real), float(c[i, j, k].imag)]
            for i, j, k in zip(*np.nonzero(np.abs(c) > 0))]


def ref_validate(alg, tol=1e-9):
    """``validate``'s defects and verdict, with ``c`` read from ``alg.mul``."""
    n, c, s = alg.dim, alg.mul, alg.star
    pairs = c.reshape(n * n, n)
    assoc = float(np.max([
        np.max(np.abs(alg._times_basis(c[i]) - (pairs @ c[i]).reshape(n, n, n))) for i in range(n)
    ]))
    dstar = float(np.max(np.abs(s @ np.conj(s) - np.eye(n))))
    lhs = alg.star_coeffs(pairs).reshape(n, n, n).transpose(1, 0, 2)
    inv = float(np.max([dstar, np.max(np.abs(lhs - alg.products(s.T, s.T)))]))
    unit_defect = 0.0
    if alg.unit is not None:
        sides = np.stack([alg.left_mat(alg.unit), alg.right_mat(alg.unit)]) - np.eye(n)
        unit_defect = float(np.max(np.linalg.norm(sides, axis=1)))
    size = float(np.max(np.abs(c)))
    bound = relative_bound(tol, size * size)
    return assoc, inv, unit_defect, bool(np.isfinite(bound)) and all(d <= bound for d in (assoc, inv, unit_defect))


def ref_group_algebra(group):
    n = group.order
    c = np.zeros((n, n, n), dtype=complex)
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[group.inverse[i], i] = 1.0
        for j in range(n):
            c[i, j, group.cayley[i, j]] = 1.0
    return c, s


def test_batched_sites_match_their_loops():
    rng = np.random.default_rng(3)
    alg = sa.semisimple_instance([3], 1, rng)
    atom = sa.central_atoms(alg).atoms[0]
    units, _ = structure.block_star_isomorphism(atom)
    exact = [[x.coeffs for x in row] for row in units]
    scale = [1.0, 2.0, 4.0]
    broken = {  # each system breaks the relations named
        "all": [[v + 1e-6 * _random_complex(rng, alg.dim) for v in row] for row in exact],
        "star only": [[scale[p] / scale[q] * exact[p][q] for q in range(3)] for p in range(3)],
        "unit sum only": [row[:2] for row in exact[:2]],
    }
    for name, system in broken.items():
        expected = _loop_matrix_unit_residual(atom, system)
        got = structure.matrix_unit_residual(atom, [[alg.element(v) for v in row] for row in system])
        assert 1e-7 < expected and abs(got - expected) <= 1e-12, name  # units have norm ~1

    mutant = nilpotent_mutant(2)
    rad = sa.radical(mutant)
    u = nullspace(np.stack([x.coeffs for x in rad], axis=1).conj().T, 1e-9)  # the complement of the radical
    assert _close(sa.quotient_by_radical(mutant, rad, 1e-9).mul, _loop_compress(mutant, u))

    center = np.array([z.coeffs for z in sa.center(alg)]).T
    eye = np.eye(alg.dim)
    stack = np.concatenate([ref_left_mat(alg.mul, e) - ref_right_mat(alg.mul, e) for e in eye])
    ref = sa.linalg.nullspace(stack, 1e-9)
    assert _close(center @ center.conj().T, ref @ ref.conj().T)

    # the sites that take basis products from the kernel give what reading mul gave, bit for bit
    s4 = groups.group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    for g in (s4, groups.quaternion_group()):
        c, s = ref_group_algebra(g)
        built = groups.build_group_algebra(g)
        assert np.array_equal(built.mul, c) and np.array_equal(built.star, s)
    cs4 = groups.build_group_algebra(s4)
    adjoined = set()
    for alg in _random_algebras() + [cs4]:
        c = alg.mul
        u, res = core._unit_solution(alg)
        ref_u, ref_res = ref_unit_solution(c)
        assert np.array_equal(u, ref_u) and res == ref_res
        big, emb, _ = ref_unitization(alg)
        adjoined.add(big is not alg)
        form = core._trace_form(alg)
        assert np.array_equal(form, ref_trace_form(c))
        # the trace over a unitization, restricted to A's coordinates, is the trace over A
        restricted = emb.conj().T @ ref_trace_form(big.mul) @ emb
        assert np.max(np.abs(form - restricted)) <= 1e-12 * max(1.0, float(np.max(np.abs(restricted))))
        assert np.array_equal(sa.unitize(alg).mul, ref_unitize_mul(c))
        assert np.array_equal(sa.direct_sum(alg, cs4).mul, ref_direct_sum_mul(c, cs4.mul))
        assert sa.algebra_to_json(alg)["mul"] == ref_json_mul(c)
        report = sa.validate(alg)
        got = (report.associativity_defect, report.involution_defect, report.unit_defect, report.passed)
        assert got == ref_validate(alg)
    assert adjoined == {False, True}  # compared with the trace over A itself and over a unitization


def _loop_certificate_residual(dec):
    """``spectral._certify``'s residual for one decomposition, one product at a time."""
    ps, b = dec.projections(), dec.source
    worst = max(max((p - p.star()).norm(), (p - p * p).norm()) for p in ps)
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            if i != j:
                worst = max(worst, (p * q).norm())
    return max(worst, (b - dec.map_values(lambda lam: lam)).norm() / max(1.0, b.norm()))


def _certificate_failure(dec):
    """The exception ``spectral._certify`` raises on a decomposition, or None when it passes."""
    ps = np.array([p.coeffs for p in dec.projections()]).reshape(-1, dec.source.parent.dim)
    lams = np.array([lam for lam, _ in dec.terms], dtype=complex)
    try:
        spectral._certify(dec.source, ps, lams, 1e-9)
    except sa.DecompositionFailed as exc:
        return exc
    return None


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
        failure = _certificate_failure(dec)
        assert isinstance(failure, sa.DecompositionFailed)
        assert str(failure).endswith(f"(residual {expected:.3e})")
        assert failure.residual == pytest.approx(expected, rel=1e-12)
    good = sa.SpectralDecomposition(e12 + e21, ((1.0, q), (-1.0, e11 + e22 - q)))
    assert _certificate_failure(good) is None
    zero = _certificate_failure(sa.SpectralDecomposition(e11, ((1.0, e11), (2.0, 0.0 * e22))))
    assert isinstance(zero, sa.DecompositionFailed) and "zero projection" in str(zero)


def test_validate_memory_is_cubic():
    # one n^3 slab at a time takes about 2.4 MB on M6; the n^4 intermediates took 80.6 MB
    alg = sa.matrix_algebra(6)
    tracemalloc.start()
    try:
        sa.validate(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def ref_nullspace(mat, tol):
    """``nullspace`` through the full SVD, square U included, as it was computed before."""
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > relative_bound(tol, s[0])))
    return vh[rank:].conj().T


def _nullspace_inputs():
    rng = np.random.default_rng(7)
    alg = sa.semisimple_instance([2, 2], 1, rng)
    eye = np.eye(alg.dim)
    p = sa.central_atoms(alg).atoms[0]
    return {
        "tall center stack": (alg.left_mat(eye) - alg.right_mat(eye)).reshape(-1, alg.dim),
        "tall annihilator stack": np.concatenate([p.lmat(), (p * sa.random_element(alg, rng)).lmat()]),
        "square full rank": sa.random_element(alg, rng).lmat(),
        "square projection": p.lmat(),
        "wide": _random_complex(rng, 3, 8),
        "all zero": np.zeros((4, 6), dtype=complex),
        "tall rank 2": _random_complex(rng, 9, 2) @ _random_complex(rng, 2, 5),
    }


@pytest.mark.parametrize("name", list(_nullspace_inputs()))
def test_nullspace_matches_the_full_svd(name):
    mat, tol = _nullspace_inputs()[name], 1e-9
    got, ref = nullspace(mat, tol), ref_nullspace(mat, tol)
    assert got.shape == ref.shape
    assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), rtol=0, atol=1e-12)
    assert subspaces_equal(got, ref, 1e-10)
    top = float(np.linalg.norm(mat, 2))
    assert np.max(np.linalg.norm(mat @ got, axis=0), initial=0.0) <= relative_bound(tol, top) + 1e-13 * top
    # a stack gives, matrix by matrix and bit for bit, what each matrix gives alone
    rng = np.random.default_rng(3)
    stack = np.stack([mat, _random_complex(rng, *mat.shape), np.zeros_like(mat), mat[::-1]])
    kernels = nullspace(stack, tol)
    assert len(kernels) == len(stack)
    for one, kernel in zip(stack, kernels):
        assert np.array_equal(kernel, nullspace(one, tol))


def ref_spectral_terms(b, tol):
    """``spectral_decompose``'s terms, one projection at a time in Element arithmetic, as it was computed before."""
    big, emb, unit = ref_unitization(b.parent, tol)
    one = big.element(unit)
    lams = sa.distinct_eigenvalues(b, tol)
    zero = relative_bound(tol, max(abs(l) for l in lams))
    evals, evecs = np.linalg.eig(big.left_mat(emb @ b.coeffs))
    assign = np.argmin(np.abs(evals[:, None] - np.array(lams)[None, :]), axis=1)
    evecs_inv = np.linalg.inv(evecs)
    terms = []
    for j, lam in enumerate(lams):
        if abs(lam) <= zero:
            continue
        sel = assign == j
        p = big.element(evecs[:, sel] @ (evecs_inv[sel, :] @ one.coeffs))
        p = 0.5 * (p + p.star())
        p = p * p * (3.0 * one - 2.0 * p)
        terms.append((lam, emb.conj().T @ p.coeffs))
    return terms


def _normal_elements():
    """Selfadjoint and complex-spectrum normal elements on scrambled shapes, and one non-unital algebra."""
    rng = np.random.default_rng(13)
    out = {}
    for shape in (([3, 2], 0), ([2, 2], 2), ([2], 3)):
        alg = sa.semisimple_instance(*shape, rng)
        h = sa.random_selfadjoint(alg, rng)
        out[f"{shape} selfadjoint"] = h
        out[f"{shape} normal"] = h + 1j * (h * h)
    part = sa.semisimple_instance([2], 1, rng)
    alg = sa.direct_sum(part, sa.nilpotent_line())
    assert not alg.is_unital()
    out["non-unital"] = alg.element(np.append(sa.random_selfadjoint(part, rng).coeffs, 0.0))
    return out


@pytest.mark.parametrize("name", list(_normal_elements()))
def test_spectral_decompose_matches_its_loop(name):
    b = _normal_elements()[name]
    got, ref = sa.spectral_decompose(b).terms, ref_spectral_terms(b, 1e-9)
    assert len(got) == len(ref) >= 2
    for (lam, p), (ref_lam, ref_p) in zip(got, ref):
        assert abs(lam - ref_lam) <= 1e-10 * max(1.0, abs(ref_lam))
        assert np.linalg.norm(p.coeffs - ref_p) <= 1e-10 * max(1.0, np.linalg.norm(ref_p))


def test_mul_is_stored_contiguous():
    mul = np.zeros((3, 3, 3), dtype=complex).transpose(1, 2, 0)
    alg = sa.StarAlgebra(mul, np.eye(3))
    assert alg.mul.flags["C_CONTIGUOUS"]


_MUL_READERS = {"StarAlgebra.__post_init__", "StarAlgebra.dim", "StarAlgebra._times_basis",
                 "StarAlgebra.right_mat"}


def _mul_attributes(node, scope=()):
    """``(qualified name of the enclosing definition, line)`` of every ``.mul`` attribute under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _mul_attributes(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Attribute) and child.attr == "mul":
            yield ".".join(scope), child.lineno
        yield from _mul_attributes(child, scope)


def test_structure_constants_have_one_reader():
    hits = [f"{path.name}:{lineno}: {name or '<module>'}"
            for path in sorted(Path(sa.__file__).parent.glob("*.py"))
            for name, lineno in _mul_attributes(ast.parse(path.read_text()))
            if not (path.name == "core.py" and name in _MUL_READERS)]
    assert not hits, "mul read outside the product kernel:\n" + "\n".join(hits)


def _unitize_calls_and_hull_names(node, scope=()):
    """``(enclosing definition, line, what)`` for each ``unitize(...)`` call and each removed hull name under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _unitize_calls_and_hull_names(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "unitize":
            yield ".".join(scope), child.lineno, "unitize"
        name = child.attr if isinstance(child, ast.Attribute) else getattr(child, "id", None)
        if name in ("embed_mat", "restrict_coeffs", "adjoined", "_unitization", "_padded"):
            yield ".".join(scope), child.lineno, name
        yield from _unitize_calls_and_hull_names(child, scope)


def test_a_unit_is_adjoined_in_one_place():
    """Only the stock unitized instance adjoins a unit; no fact is computed in a unitization, and no
    hull wrapper or padding helper is left."""
    allowed = {("instances.py", "unitized_nilpotent")}
    hits = [f"{path.name}:{lineno}: {what} in {name or '<module>'}"
            for path in sorted(Path(sa.__file__).parent.glob("*.py"))
            for name, lineno, what in _unitize_calls_and_hull_names(ast.parse(path.read_text()))
            if what != "unitize" or (path.name, name) not in allowed]
    assert not hits, "a unit adjoined outside unitized_nilpotent, or a hull name used:\n" + "\n".join(hits)


def _lapack_eigen_references(node, scope=()):
    """``(qualified name of the enclosing definition, line, name)`` of every ``*.linalg.eig``, ``eigvals`` or ``inv``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _lapack_eigen_references(child, scope + (child.name,))
            continue
        if (isinstance(child, ast.Attribute) and child.attr in ("eig", "eigvals", "inv")
                and isinstance(child.value, ast.Attribute) and child.value.attr == "linalg"):
            yield ".".join(scope), child.lineno, child.attr
        yield from _lapack_eigen_references(child, scope)


def test_the_eigen_solvers_run_in_one_place():
    """``eig`` and ``inv`` run only in ``spectral_decompose``; ``eigvals`` there and in ``distinct_eigenvalues``."""
    allowed = {("spectral.py", "spectral_decompose"): {"eig", "eigvals", "inv"},
               ("core.py", "distinct_eigenvalues"): {"eigvals"}}
    found = [(path.name, name, lineno, what)
             for path in sorted(Path(sa.__file__).parent.glob("*.py"))
             for name, lineno, what in _lapack_eigen_references(ast.parse(path.read_text()))]
    hits = [f"{path}:{lineno}: np.linalg.{what} in {name or '<module>'}"
            for path, name, lineno, what in found if what not in allowed.get((path, name), ())]
    assert not hits, "an eigen solver called outside the one solver:\n" + "\n".join(hits)
    assert {(path, name, what) for path, name, _, what in found} == {
        (path, name, what) for (path, name), names in allowed.items() for what in names}


def _name_references(node, names, scope=()):
    """``(qualified name of the enclosing definition, line, name)`` of every name or attribute in ``names`` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _name_references(child, names, scope + (child.name,))
            continue
        name = child.attr if isinstance(child, ast.Attribute) else getattr(child, "id", None)
        if name in names:
            yield ".".join(scope), child.lineno, name
        yield from _name_references(child, names, scope)


def _package_references(names):
    return [(path.name, name, lineno, what) for path in sorted(Path(sa.__file__).parent.glob("*.py"))
            for name, lineno, what in _name_references(ast.parse(path.read_text()), names)]


def test_the_cut_off_is_decided_in_linalg():
    """Rank, zero and positive-definiteness decisions go through ``linalg.significant``; ``relative_bound``
    is called only there and by the product-size, basis-inverse and EP-floor bounds."""
    calls = {(path, name) for path, name, _, _ in _package_references({"relative_bound"})}
    others = {("core.py", "validate"), ("instances.py", "from_matrix_basis"), ("spectral.py", "ep_witness")}
    hits = sorted(f"{path}: relative_bound in {name or '<module>'}" for path, name in calls
                  if path != "linalg.py" and (path, name) not in others)
    assert not hits, "a cut-off computed outside linalg:\n" + "\n".join(hits)
    assert others <= calls


def _called(call):
    """The name of the function or method a call node calls."""
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")


def _is_bound(node, bound_names):
    """A call of a linalg ``*_bound`` function, or a name assigned one in the same module."""
    if isinstance(node, ast.Call):
        return _called(node).endswith("_bound")
    return isinstance(node, ast.Name) and node.id in bound_names


def _is_one(node):
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1.0


def _scale_decisions(tree):
    """``(line, what)`` of each floor at 1.0, scaled bound, and comparison or arithmetic with bare ``tol``."""
    bound_names = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and _is_bound(node.value, ())
                   for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if _called(node) in ("max", "maximum") and any(_is_one(a) for a in node.args):
                yield node.lineno, f"{_called(node)}(1.0, ...) floor"
        elif isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
            if isinstance(node.op, (ast.Mult, ast.Div)) and any(_is_bound(x, bound_names) for x in operands):
                yield node.lineno, "a bound scaled at its call site"
            if any(isinstance(x, ast.Name) and x.id == "tol" for x in operands):
                yield node.lineno, "arithmetic on bare tol"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Name) and x.id == "tol" for x in operands):
                yield node.lineno, "a comparison with bare tol"
            if any(_is_one(x) for x in operands):
                yield node.lineno, "a comparison with 1.0 floor"


def test_the_tolerance_policy_lives_in_linalg():
    """Only ``linalg`` floors a size at 1, scales a bound or ``tol``, or compares a norm with ``tol``: every
    other module passes the residual and the size of what it compares to a ``linalg`` function."""
    hits = [f"{path.name}:{lineno}: {what}" for path in sorted(Path(sa.__file__).parent.glob("*.py"))
            if path.name != "linalg.py" for lineno, what in _scale_decisions(ast.parse(path.read_text()))]
    assert not hits, "a scale decided outside linalg:\n" + "\n".join(hits)
    # the detector sees each kind of decision it forbids
    probe = "max(1.0, s); np.maximum(1.0, s); b = certificate_bound(tol); b * s; s <= tol; tol * s; s > 1.0"
    assert {what for _, what in _scale_decisions(ast.parse(probe))} == {
        "max(1.0, ...) floor", "maximum(1.0, ...) floor", "a bound scaled at its call site",
        "a comparison with bare tol", "arithmetic on bare tol", "a comparison with 1.0 floor"}


def test_the_gram_matrix_is_factored_in_one_place():
    """Only ``_trace_coordinates`` reads ``_gram_matrix``; ``check_proper`` and ``cstar_norm`` read its factors."""
    found = {(path, name) for path, name, _, _ in _package_references({"_gram_matrix"})}
    assert found == {("spectral.py", "_trace_coordinates")}


def _cache_references(node, scope=()):
    """``(qualified name of the enclosing definition, line)`` of every ``._cache`` attribute under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _cache_references(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Attribute) and child.attr == "_cache":
            yield ".".join(scope), child.lineno
        yield from _cache_references(child, scope)


def test_per_algebra_facts_live_in_one_cache():
    """No module keeps a context-variable memo; ``_cache`` is touched by ``core._cached``, and by
    the right-projection table's one reader (``right_projections``) and one writer (the pass)."""
    allowed = {("core.py", "_cached"), ("spectral.py", "right_projections"), ("rickart.py", "_weakly_rickart_pass")}
    paths = sorted(Path(sa.__file__).parent.glob("*.py"))
    imports = [f"{path.name}:{node.lineno}" for path in paths for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Import) and any(a.name == "contextvars" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "contextvars"]
    assert not imports, "contextvars imported:\n" + "\n".join(imports)
    found = {(path.name, name, lineno) for path in paths
             for name, lineno in _cache_references(ast.parse(path.read_text()))}
    hits = [f"{path}:{lineno}: _cache in {name or '<module>'}" for path, name, lineno in found
            if (path, name) not in allowed]
    assert not hits, "_cache touched outside its three places:\n" + "\n".join(hits)
    assert {(path, name) for path, name, _ in found} == allowed


def test_right_projections_arrive_in_order_and_no_exception_is_kept():
    """``right_projections`` is a generator, ``_raised`` and ``_right_projections`` are gone, and no
    module strips a traceback to keep an exception for later."""
    tree = ast.parse(Path(spectral.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not {"_raised", "_right_projections"} & set(defs)
    assert any(isinstance(node, ast.Yield) for node in ast.walk(defs["right_projections"]))
    assert not _package_references({"with_traceback"})


def test_no_einsum_in_the_package():
    hits = [f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(Path(sa.__file__).parent.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if "einsum" in line]
    assert not hits, "products outside the kernel:\n" + "\n".join(hits)


# -- an algebra is freed when its last reference goes, without the cycle collector

def _reaches(value, target):
    """Whether ``target`` is reachable from ``value`` through containers, instances, exceptions,
    tracebacks and frames; classes, modules and functions are not followed."""
    stack, seen = [value], set()
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType,
                                                types.BuiltinFunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


def _assert_freed(make, act):
    """With the cycle collector off, ``act(alg)`` leaves no cached value that reaches alg, and
    ``del alg`` frees it."""
    gc.collect()
    gc.disable()
    try:
        alg = make()
        act(alg)
        assert not [key for key, value in alg._cache.items() if _reaches(value, alg)]
        ref = weakref.ref(alg)
        del alg
        assert ref() is None
    finally:
        gc.enable()


def _element_queries(alg):
    rng = np.random.default_rng(2)
    a, b = sa.random_element(alg, rng), sa.random_element(alg, rng)
    e, f = sa.right_projection(a), sa.right_projection(b)
    sa.join(e, f), sa.meet(e, f), sa.annihilator([a, b]), sa.quasi_inverse(a), sa.cstar_norm(a), sa.ep_witness(a)


def _failed_quasi_inverse(alg):
    with pytest.raises(sa.DecompositionFailed):
        sa.quasi_inverse(alg.basis_element(0))


def _failed_right_projection(alg):
    with pytest.raises(sa.DecompositionFailed):
        sa.right_projection(alg.basis_element(0))


def _annihilator_past_a_failed_right_projection(alg):
    # RP(e_0) fails, as e_0* e_0 = 0, and no projection generates ann(e_0) = C e_1, as e_1 = e_0*
    assert not sa.annihilator([alg.basis_element(0)]).is_principal_projection_ideal


def _analyze_past_an_ill_conditioned_solve(alg):
    # the pass's first row raises the first solve's IllConditioned out of its right_projections iterator
    solve, calls = spectral.spectral_decompose, []

    def first_fails(b, tol=sa.DEFAULT_TOL):
        calls.append(None)
        if len(calls) == 1:
            raise sa.IllConditioned("the first solve is ill-conditioned")
        return solve(b, tol)

    with mock.patch.object(spectral, "spectral_decompose", first_fails):
        with pytest.raises(sa.IllConditioned, match="first solve"):
            sa.analyze(alg)
    assert calls


def _pass_ended_by_a_failed_row(alg):
    # the first row's RP raises DecompositionFailed, which ends the pass's right_projections iterator
    assert "reason" in sa.check_weakly_rickart(alg).witness


def _pass_ended_by_a_kernel_check(alg):
    # the first row's kernel check fails while the pass's right_projections iterator is suspended
    with mock.patch.object(rickart, "certificate_bound", lambda tol: -1.0):
        assert "kernel_vector" in sa.check_weakly_rickart(alg).witness


@pytest.mark.parametrize("make, act", [
    (lambda: sa.matrix_algebra(3), sa.analyze),
    (lambda: sa.build_group_algebra(sa.symmetric_group_3()), sa.analyze),
    (lambda: sa.semisimple_instance([2, 2], 1, np.random.default_rng(1)), sa.analyze),
    (lambda: swap_mutant(2), sa.analyze),
    (lambda: nilpotent_mutant(1), sa.analyze),
    (sa.nilpotent_line, sa.analyze),
    (lambda: sa.matrix_algebra(4), sa.check_baer),
    (lambda: sa.semisimple_instance([2, 2], 1, np.random.default_rng(1)), _element_queries),
    (lambda: swap_mutant(1), _failed_quasi_inverse),
    (lambda: swap_mutant(1), _failed_right_projection),
    (lambda: swap_mutant(1), _annihilator_past_a_failed_right_projection),
    (lambda: swap_mutant(2), _analyze_past_an_ill_conditioned_solve),
    (lambda: swap_mutant(3), _pass_ended_by_a_failed_row),
    (lambda: sa.matrix_algebra(3), _pass_ended_by_a_kernel_check),
], ids=["analyze M3", "analyze C[S3]", "analyze [2,2]+1", "analyze swap_mutant(2)", "analyze nilpotent_mutant(1)",
        "analyze nilpotent_line", "check_baer M4", "element queries", "failed quasi_inverse",
        "failed right_projection", "annihilator past a failed RP", "analyze past an IllConditioned solve",
        "pass ended by a failed row", "pass ended by a kernel check"])
def test_an_algebra_is_freed_with_its_last_reference(make, act):
    _assert_freed(make, act)


def test_a_failed_matrix_unit_attempt_does_not_keep_its_algebra(monkeypatch):
    once, attempts = structure._matrix_units_once, []

    def first_fails(*args):
        attempts.append(None)
        if len(attempts) == 1:
            raise sa.DegenerateRandomness("the first attempt fails")
        return once(*args)

    monkeypatch.setattr(structure, "_matrix_units_once", first_fails)
    _assert_freed(lambda: sa.matrix_algebra(2), lambda alg: structure.block_star_isomorphism(alg.one()))
    assert len(attempts) == 2


def test_a_trace_form_row_lapack_rejects_does_not_keep_its_algebra(monkeypatch):
    svd, rejected = np.linalg.svd, []

    def rejected_row(alg):
        a = alg.element(np.arange(1.0, 5.0))
        w, w_inv = core._cached(alg, spectral._trace_coordinates, sa.DEFAULT_TOL)[2]
        bad = w @ a.lmat() @ w_inv  # the trace-form path's matrix for a

        def picky(m, *args, **kwargs):
            if np.shape(m)[-2:] == bad.shape and any(np.allclose(x, bad, rtol=0.0, atol=1e-12)
                                                     for x in np.reshape(m, (-1,) + bad.shape)):
                rejected.append(np.ndim(m))
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", picky)
        assert (sa.right_projection(a) - sa.right_projection(a.star() * a)).norm() < 1e-12  # solved instead

    _assert_freed(lambda: sa.matrix_algebra(2), rejected_row)
    assert rejected == [3, 2]  # the stack, then its row alone
