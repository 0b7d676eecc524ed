"""Finite groups, group algebras, and the certification driver."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

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


# a child's address space: enough for Python and numpy, far short of a permutation of degree 10^9
_CHILD_ADDRESS_SPACE = 1 << 30
_HUGE_DEGREE = """
import json, sys, time
from staralg.errors import GroupTableError
from staralg.groups import group_from_json
answers = []
for generators in ([], [[1, 0]]):
    start = time.perf_counter()
    try:
        answers.append(group_from_json({"type": "perm", "degree": 10 ** 9, "generators": generators}).order)
    except GroupTableError as exc:
        answers.append(type(exc).__name__)
    answers.append(time.perf_counter() - start)
print(json.dumps(answers))
"""


def test_a_huge_degree_is_answered_before_anything_of_its_size_is_formed():
    """Degree 10^9 with no generators is the trivial group, and with a generator of length 2 an error, each
    within a second: no identity or sorted range of length degree is formed. The child runs under an
    address-space limit, so a regression fails there instead of exhausting the machine."""
    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    src = str(Path(sa.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _HUGE_DEGREE], preexec_fn=limited, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    order, first_s, error, second_s = json.loads(done.stdout)
    assert (order, error) == (1, "GroupTableError")
    assert first_s < 1.0 and second_s < 1.0


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
