import random

import pytest

from graphtower import (Multigraph, connected_components, graph_matrices,
                        is_connected, spanning_tree_count)
from graphtower.linalg import det_int

from conftest import enumerate_spanning_trees, random_connected_multigraph


def triangle():
    return Multigraph.build(["a", "b", "c"],
                            [(1, ("a", "b")), (2, ("b", "c")), (3, ("c", "a"))])


def test_matrices_triangle():
    m = graph_matrices(triangle())
    assert m.A == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert m.D == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert m.chi == 0


def test_matrices_loop_counts_twice():
    g = Multigraph.build(["v"], [("e", ("v", "v"))])
    m = graph_matrices(g)
    assert m.A == ((2,),)
    assert m.D == ((2,),)
    assert m.chi == 0


def test_matrices_parallel_edges():
    g = Multigraph.build([0, 1], [(i, (0, 1)) for i in range(3)])
    m = graph_matrices(g)
    assert m.A == ((0, 3), (3, 0))
    assert m.D == ((3, 0), (0, 3))
    assert m.chi == -1


def test_laplacian_row_sums_zero():
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_multigraph(rng)
        lap = graph_matrices(g).laplacian()
        assert all(sum(row) == 0 for row in lap)


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        Multigraph.build(["a", "a"], [])
    with pytest.raises(ValueError):
        Multigraph.build(["a", "b"], [(1, ("a", "b")), (1, ("a", "b"))])
    with pytest.raises(ValueError):
        Multigraph.build(["a"], [(1, ("a", "z"))])


def test_components():
    assert len(connected_components(triangle())) == 1
    g = Multigraph.build([0, 1, 2, 3], [(0, (0, 1)), (1, (2, 3))])
    assert len(connected_components(g)) == 2
    g3 = Multigraph.build([0, 1, 2], [])
    assert len(connected_components(g3)) == 3


def test_spanning_tree_counts_known():
    assert spanning_tree_count(triangle()) == 3
    k4 = Multigraph.build(range(4),
                          [(i, e) for i, e in enumerate(
                              [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])])
    assert spanning_tree_count(k4) == 16
    disjoint = Multigraph.build([0, 1, 2, 3], [(0, (0, 1)), (1, (2, 3))])
    assert spanning_tree_count(disjoint) == 0


def test_enumeration_matches_determinant():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_multigraph(rng, max_vertices=6, max_extra_edges=4)
        if g.num_edges > 16:
            continue
        assert spanning_tree_count(g) == len(enumerate_spanning_trees(g))


def test_all_principal_minors_agree():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_multigraph(rng, max_vertices=6)
        lap = graph_matrices(g).laplacian()
        n = len(lap)
        minors = set()
        for k in range(n):
            minor = [[lap[i][j] for j in range(n) if j != k]
                     for i in range(n) if i != k]
            minors.add(det_int(minor))
        assert len(minors) == 1


def test_adding_loop_changes_nothing():
    g = triangle()
    with_loop = Multigraph.build(g.vertices, list(g.edges) + [(9, ("a", "a"))])
    assert spanning_tree_count(g) == spanning_tree_count(with_loop)
    assert (graph_matrices(g).laplacian() ==
            graph_matrices(with_loop).laplacian())
