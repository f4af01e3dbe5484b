"""The tree number ties `zeta` to `jacobian`.

f(u) = det(I − Au + (D − I)u²), the det_part of `zeta --level n`, has
f(0) = 1 and f(1) = det(D − A) = 0; f'(1) = 2(|E| − |V|)·κ, κ the number
of spanning trees of X_n (Hashimoto, Adv. Stud. Pure Math. 15, 1989;
Northshield, J. Combin. Theory Ser. B 74, 1998); and the coefficient of
u^(2|V|), the top one, is ∏_v (deg v − 1), 0 when some vertex has degree
1.  κ is the `order` that `jacobian --level n` reports, or 0 when X_n is
disconnected and `jacobian` exits 2.  Both subcommands run through
`cli.main` on the same config.
"""

import json
import random
from math import prod

import pytest

from graphtower.cli import main

from conftest import (COVER_ZETA_CELLS, LOOP_CONFIG, MU2_CONFIG,
                      ORACLE_SHAPES, abelian_pin_config, oracle_instance)


def _config(alpha):
    """The JSON config of a voltage assignment on integer vertex and edge
    ids."""
    spec = alpha.spec
    group = {"kind": spec.kind, "p": spec.p}
    if spec.kind == "abelian":
        group["rank"] = spec.rank
    return {"graph": {"vertices": list(alpha.base.vertices),
                      "edges": [{"id": e, "ends": list(ends)}
                                for e, ends in alpha.base.edges]},
            "group": group,
            "voltage": {str(e): [list(letter) for letter in word]
                        for e, word in alpha.voltages}}


def _oracle_covers():
    """Two seeded instances of each oracle shape, at level 1 when X_1 has
    at most 36 vertices and at level 0 otherwise."""
    rng = random.Random(91)
    covers = []
    for kind, p, rank in ORACLE_SHAPES:
        for _ in range(2):
            alpha = oracle_instance(rng, kind, p, rank)
            small = alpha.spec.order(1) * alpha.base.num_vertices <= 36
            covers.append((_config(alpha), int(small)))
    return covers


def _cell_covers():
    """Two seeded covers of each `cover_zeta` cell shape."""
    rng = random.Random(92)
    return [(abelian_pin_config(rng, p, rank, level, nv, extra), level)
            for p, rank, nv, extra, level in COVER_ZETA_CELLS * 2]


def _split_covers():
    """p = 2 covers that the involution splits: abelian of ranks 1-3 and
    metacyclic, seeded, and a loop of voltage c at v0 of a 2-vertex base."""
    rng = random.Random(93)
    covers = [(abelian_pin_config(rng, 2, rank, level, 2, 3), level)
              for rank, level in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                  (3, 1))]
    covers += [(_config(oracle_instance(rng, "metacyclic", 2, 2)), level)
               for level in (1, 1, 2)]
    for level in (1, 2, 3):
        mod = 2 ** level
        covers.append(({
            "graph": {"vertices": [0, 1],
                      "edges": [{"id": i, "ends": ends} for i, ends in
                                enumerate([[0, 1], [0, 0], [1, 1], [0, 1]])]},
            "group": {"kind": "abelian", "p": 2, "rank": 1},
            "voltage": {"0": [[0, 1]], "1": [[0, mod // 2]],
                        "2": [[0, rng.randrange(mod)]], "3": []}}, level))
    return covers


_COVERS = {
    "oracle": _oracle_covers,
    "cover-zeta-cells": _cell_covers,
    "loop": lambda: [(LOOP_CONFIG, level) for level in range(4)],
    "mu2": lambda: [(MU2_CONFIG, 1)],
    "split": _split_covers,
}


def _tree_number_facts(tmp_path, capsys, config, level):
    """Check the four facts on one cover; returns κ and the top
    coefficient."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    assert main(["zeta", "--config", str(path), "--level", str(level)]) == 0
    f = json.loads(capsys.readouterr().out)["det_part"]
    code = main(["jacobian", "--config", str(path), "--level", str(level)])
    out, err = capsys.readouterr()
    if code == 2:
        assert "connected" in err
        kappa = 0
    else:
        assert code == 0
        kappa = json.loads(out)["order"]
    group = config["group"]
    size = group["p"] ** (level * (group.get("rank", 1)
                                   if group["kind"] == "abelian" else 2))
    vertices = config["graph"]["vertices"]
    degrees = dict.fromkeys(vertices, 0)
    for edge in config["graph"]["edges"]:
        for end in edge["ends"]:
            degrees[end] += 1
    num_vertices = len(vertices) * size
    num_edges = len(config["graph"]["edges"]) * size
    assert f[0] == 1
    assert sum(f) == 0
    assert sum(k * c for k, c in enumerate(f)) == (
        2 * (num_edges - num_vertices) * kappa)
    top = prod(d - 1 for d in degrees.values()) ** size
    assert len(f) <= 2 * num_vertices + 1
    assert (f[2 * num_vertices] if len(f) > 2 * num_vertices else 0) == top
    return kappa, top


@pytest.mark.parametrize("covers", sorted(_COVERS))
def test_tree_number_ties_zeta_to_jacobian(tmp_path, capsys, covers):
    facts = [_tree_number_facts(tmp_path, capsys, config, level)
             for config, level in _COVERS[covers]()]
    assert any(kappa for kappa, _ in facts)
    if covers in ("oracle", "cover-zeta-cells", "split"):
        # disconnected covers too, and vertices of degree 1
        assert not all(kappa for kappa, _ in facts)
        assert not all(top for _, top in facts)
