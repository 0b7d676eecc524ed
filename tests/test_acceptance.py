"""End-to-end acceptance criteria; each test prints one pass/fail line."""

import time

import numpy as np
import pytest

import staralg as sa
from staralg.instances import (
    nilpotent_mutant,
    semisimple_instance,
    swap_mutant,
)
from staralg.rickart import orthogonal_family
from staralg.stepfns import (
    FiniteSubsets,
    export_finite_backend,
    sf_annihilator,
    sf_rp,
    sf_spectral_decompose,
    step_function,
    step_to_coeffs,
)


def _report(name, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}" + (f" ({extra})" if extra else ""))
    assert passed, name


def _instance_pool(count, rng):
    """Mixed pool: scrambled semisimple instances plus degenerate mutants."""
    shapes = [
        ([2], 0), ([2], 1), ([3], 0), ([2, 2], 1), ([3, 2], 0),
        ([2], 4), ([3], 2), ([4], 2), ([2, 2, 2], 1), ([3, 3], 1),
        ([4], 4), ([2, 3], 3),
    ]
    pool = []
    for i in range(count):
        kind = i % 10
        if kind == 8:
            pool.append(("swap", swap_mutant(1 + i % 3)))
        elif kind == 9:
            pool.append(("nilpotent", nilpotent_mutant(i % 4)))
        else:
            blocks, ab = shapes[i % len(shapes)]
            pool.append(("semisimple", semisimple_instance(blocks, ab, rng)))
    return pool


def test_criterion_1_coherence_over_many_instances():
    """Every instance analyzes without internal inconsistency, in the time budget."""
    rng = np.random.default_rng(2024)
    pool = _instance_pool(200, rng)
    t0 = time.time()
    for i, (kind, alg) in enumerate(pool):
        r = sa.analyze(alg, seed=i)  # raises InternalInconsistency on incoherence
        if kind == "semisimple":
            assert r.proper and r.baer
        else:
            assert not r.proper and not r.baer
    elapsed = time.time() - t0
    _report("criterion 1: coherence on 200 instances", elapsed <= 60.0,
            f"{elapsed:.1f}s")


def test_criterion_2_spectral_residuals():
    """Core spectral identities hold to 1e-8 on random elements of proper instances."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for blocks, ab in [([2], 1), ([3, 2], 0), ([2, 2], 2)]:
        alg = semisimple_instance(blocks, ab, rng)
        for _ in range(50):
            a = sa.random_element(alg, rng)
            s = max(1.0, a.norm())
            e = sa.right_projection(a)
            worst = max(worst, (a * e - a).norm() / s)
            x = sa.quasi_inverse(a)
            worst = max(worst, (a * x * a - a).norm() / s)
            h = a.star() * a
            y = sa.positive_sqrt(h)
            worst = max(worst, (y * y - h).norm() / max(1.0, h.norm()))
            w = sa.ep_witness(a)
            worst = max(worst, (h * w * w - e).norm() / max(1.0, e.norm()))
    _report("criterion 2: spectral identity residuals <= 1e-8", worst <= 1e-8,
            f"worst {worst:.2e}")


def test_criterion_3_structure_round_trip():
    """Recovered block data matches the construction; matrix units certify."""
    rng = np.random.default_rng(99)
    cases = [([2], 0), ([3], 1), ([2, 2], 0), ([3, 2], 2), ([4], 0), ([2, 2, 3], 1)]
    worst = 0.0
    for i, (blocks, ab) in enumerate(cases):
        alg = semisimple_instance(blocks, ab, rng)
        r = sa.analyze(alg, seed=i)
        assert sorted(r.block_sizes_nonabelian) == sorted(blocks)
        assert r.abelian_dim == ab
        assert sum(n * n for n in r.block_sizes_nonabelian) + r.abelian_dim == r.dim
        assert all(n >= 2 for n in r.block_sizes_nonabelian)
        worst = max(worst, r.residuals["matrix_unit_worst"])
    _report("criterion 3: block recovery round-trip, unit residuals <= 1e-8",
            worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_4_group_algebras():
    """Group algebra block data matches representation theory, in the time budget."""
    t0 = time.time()
    for n in range(1, 13):
        r = sa.certify_group_theorem(sa.cyclic_group(n))
        assert r.block_sizes_nonabelian == [] and r.abelian_dim == n
    r = sa.certify_group_theorem(sa.symmetric_group_3())
    assert sorted([1] * r.abelian_dim + r.block_sizes_nonabelian) == [1, 1, 2]
    for g in (sa.dihedral_group(4), sa.quaternion_group()):
        r = sa.certify_group_theorem(g)
        assert sorted([1] * r.abelian_dim + r.block_sizes_nonabelian) == [1, 1, 1, 1, 2]
        assert len(r.block_sizes_nonabelian) + r.abelian_dim == g.conjugacy_class_count()
    elapsed = time.time() - t0
    _report("criterion 4: group algebra degrees match", elapsed <= 30.0,
            f"{elapsed:.1f}s")


def test_criterion_5_degenerate_instances():
    """Non-proper and non-semisimple instances are flagged with usable witnesses."""
    r = sa.analyze(swap_mutant(1))
    ok = not r.proper and r.witness is not None
    if ok:
        coeffs = [complex(re, im) for re, im in r.witness["element"]]
        a = swap_mutant(1).element(coeffs)
        ok = a.norm() > 1e-3 and (a.star() * a).norm() <= 1e-8

    r2 = sa.analyze(sa.unitized_nilpotent())
    ok = ok and r2.hermitian and not r2.semisimple and not r2.baer
    _report("criterion 5: degenerate instances flagged with witnesses", ok)


def test_criterion_6_projection_lattice():
    """Join/meet are bounds on 1000+ random pairs; greedy families stay <= dim."""
    rng = np.random.default_rng(6)
    algs = [sa.matrix_algebra(2), sa.matrix_algebra(3),
            semisimple_instance([2, 2], 1, rng)]
    pairs = 0
    ok = True
    while pairs < 1000:
        alg = algs[pairs % len(algs)]
        e = sa.right_projection(sa.random_element(alg, rng))
        f = sa.right_projection(sa.random_element(alg, rng))
        g = sa.join(e, f, 1e-9)
        m = sa.meet(e, f, 1e-9)
        ok = ok and sa.proj_leq(e, g, 1e-8) and sa.proj_leq(f, g, 1e-8)
        ok = ok and sa.proj_leq(m, e, 1e-8) and sa.proj_leq(m, f, 1e-8)
        pairs += 1
    for seed in range(20):
        alg = algs[seed % len(algs)]
        fam = orthogonal_family(alg, seed=seed)
        ok = ok and len(fam) <= alg.dim
    _report("criterion 6: lattice bounds on 1000 pairs, families <= dim", ok,
            f"{pairs} pairs")


def test_criterion_7_exact_commutative_oracle():
    """The float pipeline reproduces the exact step-function answers to 1e-10."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for n in (2, 4, 7, 10):
        backend = FiniteSubsets(n)
        alg = export_finite_backend(backend)
        for _ in range(10):
            # random integer-valued step function (possibly with zero cells)
            vals = rng.integers(-3, 4, size=n)
            f = step_function(
                backend,
                [(backend.subset([i]), int(vals[i])) for i in range(n)],
            )
            a = alg.element(step_to_coeffs(f))

            if any(vals):
                e = sa.right_projection(a)
                worst = max(worst, float(np.max(np.abs(
                    e.coeffs - step_to_coeffs(sf_rp(f))))))
                got = {round(l.real): p for l, p in
                       ((lam, p) for lam, p in sa.spectral_decompose(a).terms)}
                for lam, ind in sf_spectral_decompose(f):
                    key = int(lam.re)
                    assert key in got
                    worst = max(worst, float(np.max(np.abs(
                        got[key].coeffs - step_to_coeffs(ind)))))

            ann = sa.annihilator([a])
            exact_gen = step_to_coeffs(sf_annihilator([f]))
            worst = max(worst, float(np.max(np.abs(ann.generator.coeffs - exact_gen))))
    _report("criterion 7: float pipeline matches exact commutative oracle",
            worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_8_one_sided_inverses():
    """ab = 1 forces ba = 1 numerically in every constructed case."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for blocks, ab_dim in [([2], 0), ([3], 1), ([2, 2], 2)]:
        alg = semisimple_instance(blocks, ab_dim, rng)
        one = alg.element(alg.unit_vector())
        for _ in range(20):
            a = sa.random_element(alg, rng)
            # right inverse from the regular representation: ab = 1
            b = alg.element(np.linalg.solve(a.lmat(), one.coeffs))
            ab_res = (a * b - one).norm()
            assert ab_res <= 1e-8 * max(1.0, a.norm()) * max(1.0, b.norm())
            worst = max(worst, (b * a - one).norm() / max(1.0, a.norm() * b.norm()))
    _report("criterion 8: one-sided inverses are two-sided", worst <= 1e-8,
            f"worst {worst:.2e}")
