import random

import pytest

from graphtower import (Multigraph, TowerGroupSpec, VoltageAssignment,
                        jacobian_structure, level_jacobian, picard_structure,
                        smith_normal_form, spanning_tree_count)
from graphtower.errors import DisconnectedError
from graphtower.linalg import det_int

from conftest import dense_laplacian, random_connected_multigraph, sparse


def cycle(n):
    return Multigraph.build(range(n), [(i, (i, (i + 1) % n)) for i in range(n)])


def test_snf_wrapper():
    snf = smith_normal_form(*sparse([[2, 0], [0, 3]]))
    assert snf.invariant_factors == (1, 6)
    assert snf.rank == 2


def test_jacobian_known_groups():
    assert jacobian_structure(cycle(3)).torsion == (3,)
    assert jacobian_structure(cycle(4)).torsion == (4,)
    path = Multigraph.build([0, 1, 2], [(0, (0, 1)), (1, (1, 2))])
    assert jacobian_structure(path).torsion == ()


def test_picard_known_groups():
    pic = picard_structure(cycle(3))
    assert pic.free_rank == 1 and pic.torsion == (3,)
    one_loop = Multigraph.build([0], [(0, (0, 0))])
    pic = picard_structure(one_loop)
    assert pic.free_rank == 1 and pic.torsion == ()
    edge = Multigraph.build([0, 1], [(0, (0, 1))])
    assert picard_structure(edge).free_rank == 1
    assert picard_structure(edge).torsion == ()


def test_disconnected_rejected():
    g = Multigraph.build([0, 1], [])
    with pytest.raises(DisconnectedError):
        jacobian_structure(g)
    with pytest.raises(DisconnectedError):
        picard_structure(g)


def test_jacobian_order_is_tree_count():
    rng = random.Random(61)
    for _ in range(30):
        g = random_connected_multigraph(rng, max_vertices=8)
        assert jacobian_structure(g).torsion_order == spanning_tree_count(g)


def test_picard_is_z_plus_jacobian():
    rng = random.Random(62)
    for _ in range(20):
        g = random_connected_multigraph(rng, max_vertices=7)
        jac = jacobian_structure(g)
        pic = picard_structure(g)
        assert pic.free_rank == 1
        assert pic.torsion == jac.torsion


def test_group_order_annihilates_jacobian():
    # the determinant of the reduced Laplacian kills the cokernel
    rng = random.Random(63)
    from graphtower.linalg import smith_invariant_factors
    for _ in range(15):
        g = random_connected_multigraph(rng, max_vertices=6)
        lap = dense_laplacian(g)
        reduced = [row[1:] for row in lap[1:]]
        order = abs(det_int(reduced))
        for d in smith_invariant_factors(*sparse(reduced)):
            assert d == 0 or order % d == 0


def test_level_jacobian_cycle_cover():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    loop = Multigraph.build(["v"], [("e", ("v", "v"))])
    alpha = VoltageAssignment.build(loop, spec, {"e": [[0, 1]]})
    structure, e2 = level_jacobian(alpha, 2)
    assert structure.torsion == (9,)
    assert e2 == 2
    base_structure, e0 = level_jacobian(alpha, 0)
    assert base_structure.torsion == () and e0 == 0


def test_level_jacobian_disconnected_signals():
    spec = TowerGroupSpec("abelian", 3, rank=1)
    loop = Multigraph.build(["v"], [("e", ("v", "v"))])
    alpha = VoltageAssignment.build(loop, spec, {"e": []})
    with pytest.raises(DisconnectedError):
        level_jacobian(alpha, 1)
