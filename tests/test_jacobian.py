import json
import random

import pytest

import graphtower.jacobian
from graphtower import (Multigraph, TowerGroupSpec, VoltageAssignment,
                        level_jacobian)
from graphtower.cli import main
from graphtower.errors import DisconnectedError
from graphtower.linalg import det_int, smith_invariant_factors

from conftest import (dense_laplacian, random_connected_multigraph, sparse,
                      spanning_tree_count, trivial_cover)


def cycle(n):
    return Multigraph.build(range(n), [(i, (i, (i + 1) % n)) for i in range(n)])


def jacobian_job(tmp_path, capsys, graph):
    """`jacobian --level 0` on a graph, as a Z_2 tower of empty voltages:
    its exit code and its report, or None when it fails."""
    data = {"graph": {"vertices": list(graph.vertices),
                      "edges": [{"id": e, "ends": list(ends)}
                                for e, ends in graph.edges]},
            "group": {"kind": "abelian", "p": 2},
            "voltage": {str(e): [] for e, _ in graph.edges}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data))
    code = main(["jacobian", "--level", "0", "--config", str(path)])
    return code, json.loads(capsys.readouterr().out) if code == 0 else None


def graph_jacobian(graph):
    """J(X) as `jacobian --level 0` computes it, at level 0 of the trivial
    cover."""
    return level_jacobian(trivial_cover(graph), 0)[0]


def test_snf_wrapper():
    factors = smith_invariant_factors(*sparse([[2, 0], [0, 3]]))
    assert tuple(factors) == (1, 6)
    assert sum(1 for d in factors if d != 0) == 2


def test_jacobian_known_groups():
    assert graph_jacobian(cycle(3)).torsion == (3,)
    assert graph_jacobian(cycle(4)).torsion == (4,)
    path = Multigraph.build([0, 1, 2], [(0, (0, 1)), (1, (1, 2))])
    assert graph_jacobian(path).torsion == ()


def test_picard_known_groups(tmp_path, capsys):
    _, report = jacobian_job(tmp_path, capsys, cycle(3))
    pic = report["picard"]
    assert pic["free_rank"] == 1 and pic["torsion"] == [3]
    one_loop = Multigraph.build([0], [(0, (0, 0))])
    _, report = jacobian_job(tmp_path, capsys, one_loop)
    pic = report["picard"]
    assert pic["free_rank"] == 1 and pic["torsion"] == []
    edge = Multigraph.build([0, 1], [(0, (0, 1))])
    _, report = jacobian_job(tmp_path, capsys, edge)
    assert report["picard"]["free_rank"] == 1
    assert report["picard"]["torsion"] == []


def test_disconnected_rejected(tmp_path, capsys):
    g = Multigraph.build([0, 1], [])
    with pytest.raises(DisconnectedError):
        graph_jacobian(g)
    assert jacobian_job(tmp_path, capsys, g) == (2, None)
    assert "connected graph" in capsys.readouterr().err


def test_jacobian_order_is_tree_count():
    rng = random.Random(61)
    for _ in range(30):
        g = random_connected_multigraph(rng, max_vertices=8)
        assert graph_jacobian(g).torsion_order == spanning_tree_count(g)


def test_picard_is_z_plus_jacobian():
    """Pic(X), the cokernel of the full dense Laplacian by its own Smith
    form, is Z ⊕ J(X) on connected graphs: the identity `jacobian --level
    0` builds its Picard group from."""
    rng = random.Random(62)
    for _ in range(20):
        g = random_connected_multigraph(rng, max_vertices=7)
        jac = graph_jacobian(g)
        factors = smith_invariant_factors(*sparse(dense_laplacian(g)))
        assert g.num_vertices - sum(1 for d in factors if d) == 1
        assert tuple(d for d in factors if d > 1) == jac.torsion


def test_level_0_jacobian_takes_one_smith_form(tmp_path, capsys,
                                               monkeypatch):
    """`jacobian --level 0` reports J(X) and Pic(X) = Z ⊕ J(X) from one
    Smith form, of the reduced Laplacian."""
    calls = []
    smith = graphtower.jacobian.smith_invariant_factors

    def counted(rows, cols):
        calls.append(cols)
        return smith(rows, cols)

    monkeypatch.setattr(graphtower.jacobian, "smith_invariant_factors",
                        counted)
    _, report = jacobian_job(tmp_path, capsys, cycle(4))
    assert calls == [3]
    assert report["jacobian"]["torsion"] == [4]
    assert report["picard"] == {"free_rank": 1, "torsion": [4],
                                "description": "Z + Z/4"}


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
