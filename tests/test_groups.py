"""Finite groups, group algebras, and the certification driver."""

import numpy as np
import pytest

import staralg as sa
from staralg.groups import build_group_algebra, group_from_json, group_to_json


def test_cyclic_group_basics():
    g = sa.cyclic_group(5)
    assert g.order == 5
    assert g.is_commutative()
    assert g.conjugacy_class_count() == 5


def test_symmetric_group_3():
    g = sa.symmetric_group_3()
    assert g.order == 6
    assert not g.is_commutative()
    assert g.conjugacy_class_count() == 3


def test_dihedral_group_order():
    for n in (3, 4, 5):
        assert sa.dihedral_group(n).order == 2 * n
    assert sa.dihedral_group(4).conjugacy_class_count() == 5


def test_quaternion_group():
    q = sa.quaternion_group()
    assert q.order == 8
    assert q.conjugacy_class_count() == 5
    assert not q.is_commutative()
    # i * j = k, j * i = -k
    idx = {name: i for i, name in enumerate(q.labels)}
    assert q.cayley[idx["i"], idx["j"]] == idx["k"]
    assert q.cayley[idx["j"], idx["i"]] == idx["-k"]


def test_group_from_cayley_rejects_bad_tables():
    with pytest.raises(sa.GroupTableError):
        sa.group_from_cayley([[0, 0], [1, 1]])  # not a Latin square
    with pytest.raises(sa.GroupTableError):
        sa.group_from_cayley([[1, 0], [0, 2]])  # out of range
    with pytest.raises(sa.GroupTableError):
        sa.group_from_cayley([[0, 1.9], [1, 0.2]])  # not integers; truncation would give C2
    with pytest.raises(sa.GroupTableError):
        sa.group_from_cayley([[0, True], [True, 0]])  # booleans; numpy would read C2
    with pytest.raises(sa.GroupTableError):
        sa.group_from_cayley([[0]], labels=["a", "b"])  # two labels for one element
    # the permutation form takes the same rule: truncation would give (0 1) of degree 3, cap 2
    for bad in ({"degree": 3, "generators": [[1.9, 0, 2]]},
                {"degree": 3.7, "generators": [[1, 0, 2]]},
                {"degree": 3, "generators": [[1, 0, 2]], "cap": 2.5},
                {"degree": True, "generators": [[0]]},
                {"degree": 3, "generators": [[True, False, 2]]},
                {"degree": -3, "generators": [[]]}):  # range(-3) is empty, so [] would pass as a permutation
        with pytest.raises(sa.GroupTableError):
            group_from_json({"type": "perm", **bad})
    # integral floats stay accepted
    assert group_from_json({"type": "perm", "degree": 3.0, "generators": [[1.0, 0, 2]], "cap": 10.0}).order == 2
    assert sa.group_from_cayley([[0, 1.0], [1, 0]]).order == 2


def test_group_from_permutations_closure_cap():
    with pytest.raises(sa.ClosureCapExceeded):
        sa.group_from_permutations(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], cap=10)


def test_group_algebra_structure():
    alg = build_group_algebra(sa.cyclic_group(3))
    assert alg.is_unital()
    rep = sa.validate(alg)
    assert rep.passed
    # star of a group element is its inverse
    g1 = alg.basis_element(1)
    g2 = alg.basis_element(2)
    assert (g1.star() - g2).norm() < 1e-14


def test_certify_cyclic():
    for n in (1, 2, 3, 4, 6):
        report = sa.certify_group_theorem(sa.cyclic_group(n))
        assert report.block_sizes_nonabelian == []
        assert report.abelian_dim == n


def test_certify_s3():
    report = sa.certify_group_theorem(sa.symmetric_group_3())
    assert sorted(report.block_sizes_nonabelian) == [2]
    assert report.abelian_dim == 2


def test_certify_q8_and_d4():
    for g in (sa.quaternion_group(), sa.dihedral_group(4)):
        report = sa.certify_group_theorem(g)
        assert sorted(report.block_sizes_nonabelian) == [2]
        assert report.abelian_dim == 4


def test_group_json_round_trip():
    g = sa.symmetric_group_3()
    back = group_from_json(group_to_json(g))
    assert np.array_equal(back.cayley, g.cayley)
    perm = group_from_json({"type": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]})
    assert perm.order == 6
    with pytest.raises(sa.GroupTableError):
        group_from_json({"type": "nope"})
