import random

import pytest

from graphtower import Multigraph
from graphtower.graphs import component_count, laplacian_rows
from graphtower.linalg import det_int

from conftest import (dense_laplacian, enumerate_spanning_trees,
                      graph_matrices, random_connected_multigraph,
                      spanning_tree_count)


def plain_rows(g):
    """The reduced Laplacian rows of g, as a cover of itself of fibre size
    1."""
    return laplacian_rows(g.num_vertices, g.index_pairs(),
                          [[0]] * g.num_edges, 1)


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


def test_degrees_match_the_dense_degree_matrix():
    rng = random.Random(12)
    graphs = [Multigraph.build([0, 1, 2], []),
              Multigraph.build([0, 1], [(0, (0, 0)), (1, (0, 0))])]
    for _ in range(30):
        g = random_connected_multigraph(rng)
        graphs.append(Multigraph.build((*g.vertices, "isolated"), g.edges))
    for g in graphs:
        d = graph_matrices(g).D
        assert g.degrees() == [d[i][i] for i in range(g.num_vertices)]


def test_laplacian_row_sums_zero():
    """D − A has zero row sums, so a reduced row sums to the number of its
    vertex's edges to the dropped vertex 0."""
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_multigraph(rng)
        pairs = g.index_pairs()
        assert [sum(row.values()) for row in plain_rows(g)] == [
            sum({i, j} == {0, k} for i, j in pairs)
            for k in range(1, g.num_vertices)]


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        Multigraph.build(["a", "a"], [])
    with pytest.raises(ValueError):
        Multigraph.build(["a", "b"], [(1, ("a", "b")), (1, ("a", "b"))])
    with pytest.raises(ValueError):
        Multigraph.build(["a"], [(1, ("a", "z"))])


def test_components():
    assert component_count(3, triangle().index_pairs()) == 1
    assert component_count(4, [(0, 1), (2, 3)]) == 2
    assert component_count(3, []) == 3
    assert component_count(3, [(1, 1), (2, 2), (2, 2)]) == 3
    assert component_count(0, []) == 0


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
        lap = dense_laplacian(g)
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
    assert plain_rows(g) == plain_rows(with_loop)


def test_laplacian_rows_match_the_dense_laplacian():
    """Sparse rows equal D − A with its zeros left out and the row and
    column of vertex 0 dropped, also on the graph with no vertices."""
    rng = random.Random(13)
    empty = Multigraph.build([], [])
    for g in [empty] + [random_connected_multigraph(rng, max_vertices=7)
                        for _ in range(30)]:
        dense = dense_laplacian(g)
        assert plain_rows(g) == [
            {j - 1: v for j, v in enumerate(row) if v and j}
            for row in dense[1:]]
