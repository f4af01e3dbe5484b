"""Metamorphic checks: the reports of the subcommands that read X_n's index
pairs depend only on the cover's isomorphism class.

Switching-equivalent voltage assignments give isomorphic derived graphs
(Gross & Tucker, *Topological Graph Theory*, ch. 2): with a word w_v at
each vertex, (v, g) ↦ (v, g·w_v) maps X_n of α onto X_n of
α'(e) = w_s⁻¹·α(e)·w_t, for e from s to t.  Reversing an edge and
inverting its word, or renaming and reordering the vertex and edge ids,
gives the same cover with other labels.  So `jacobian`, `tower`,
`iwasawa-fit`, `mhg-check`, `zeta` and `check-factorization` must print the
same bytes for the transformed config, apart from `config_hash`, and
`derive` the same counts.  `mhg-check` reads the quotient tower, whose
voltages the transforms move the same way, so its λ1 determinant is taken
of a conjugate matrix.

The character reports `lfun`, `fitting` and `check-interpolation` are read
one character at a time, and each transform conjugates χ(A_α) by a
diagonal or a permutation matrix, so they print the same bytes too.  Over
an abelian group, negating every voltage (and every quotient exponent)
maps X_n onto itself by g ↦ g⁻¹, and turns χ(A_α) into its complex
conjugate, which is its transpose since χ(A_α) is Hermitian; so every
character keeps its L-function, and no report is re-keyed.
"""

import copy
import json
import random
import re

import pytest

from graphtower.cli import main

from conftest import LOOP_CONFIG, MU2_CONFIG, abelian_pin_config

_HASH = re.compile(r'\n  "config_hash": "[0-9a-f]{64}",')

_DERIVE_COUNTS = ("num_vertices", "num_edges", "connected", "num_components")


def _inverse(word):
    return [[g, -x] for g, x in reversed(word)]


def _generators(config):
    group = config["group"]
    return 2 if group["kind"] == "metacyclic" else group.get("rank", 1)


def _random_word(rng, generators):
    return [[rng.randrange(generators), rng.choice([-2, -1, 1, 2, 10])]
            for _ in range(rng.randint(1, 3))]


def switch(config, rng):
    """α'(e) = w_s⁻¹·α(e)·w_t, with a random nonempty word w_v at each
    vertex."""
    new = copy.deepcopy(config)
    words = {v: _random_word(rng, _generators(config))
             for v in config["graph"]["vertices"]}
    for edge in new["graph"]["edges"]:
        s, t = edge["ends"]
        key = str(edge["id"])
        new["voltage"][key] = _inverse(words[s]) + new["voltage"][key] + \
            words[t]
    return new


def reverse(config, rng):
    """A random nonempty set of edges reversed, their words inverted,
    drawn from the edges that this changes: non-loops, and loops whose
    word is not its own inverse letter by letter."""
    new = copy.deepcopy(config)
    voltage = new["voltage"]
    edges = [edge for edge in new["graph"]["edges"]
             if edge["ends"][0] != edge["ends"][1] or
             _inverse(voltage[str(edge["id"])]) != voltage[str(edge["id"])]]
    for edge in rng.sample(edges, rng.randint(1, len(edges))):
        edge["ends"].reverse()
        key = str(edge["id"])
        voltage[key] = _inverse(voltage[key])
    return new


def relabel(config, rng):
    """New vertex and edge ids, strings and integers mixed, with the vertex
    and edge lists shuffled."""
    new = copy.deepcopy(config)
    graph = new["graph"]
    names = {v: (f"r{k}" if k % 2 else 1000 + k)
             for k, v in enumerate(rng.sample(graph["vertices"],
                                              len(graph["vertices"])))}
    graph["vertices"] = rng.sample([names[v] for v in graph["vertices"]],
                                   len(names))
    edges, voltage = [], {}
    for k, edge in enumerate(rng.sample(graph["edges"], len(graph["edges"]))):
        eid = f"x{k}" if k % 2 else 2000 + k
        edges.append({"id": eid, "ends": [names[v] for v in edge["ends"]]})
        voltage[str(eid)] = new["voltage"][str(edge["id"])]
    graph["edges"] = edges
    new["voltage"] = voltage
    return new


def negate(config, rng):
    """Every voltage exponent and every quotient exponent negated, for
    abelian configs."""
    new = copy.deepcopy(config)
    new["voltage"] = {key: [[g, -x] for g, x in word]
                      for key, word in new["voltage"].items()}
    if "quotient" in new:
        new["quotient"]["exponents"] = [
            -x for x in new["quotient"]["exponents"]]
    return new


def _character_jobs(level):
    return [[command, "--level", str(level)]
            for command in ("lfun", "fitting", "check-interpolation")]


# (config, the subcommands run on it): levels are at most 2, and MU2's
# tower, zeta and check-factorization stay at level 1, since the zeta of
# its 162-vertex level-2 cover takes about a minute; iwasawa-fit needs
# levels 0-2; the character reports run at each entry's level, and on MU2,
# whose group is not abelian, `lfun` and `check-interpolation` exit 2 and
# `fitting` prints regular_det alone
_JOBS = {
    "loop": (LOOP_CONFIG, [["jacobian", "--level", "2"],
                           ["tower", "--max-level", "2"],
                           ["iwasawa-fit", "--max-level", "2"],
                           ["mhg-check"],
                           ["zeta", "--level", "2"],
                           ["check-factorization", "--level", "2"],
                           ["derive", "--level", "2"],
                           *_character_jobs(2)]),
    "mu2": (MU2_CONFIG, [["jacobian", "--level", "2"],
                         ["tower", "--max-level", "1"],
                         ["iwasawa-fit", "--max-level", "2"],
                         ["mhg-check"],
                         ["zeta", "--level", "1"],
                         ["check-factorization", "--level", "1"],
                         ["derive", "--level", "2"],
                         *_character_jobs(1)]),
    **{f"pin{p}^{rank}": (
        {**abelian_pin_config(random.Random(f"pin {p} {rank}"), p, rank,
                              level, 3, 4),
         "quotient": {"exponents": [1] + [0] * (rank - 1)}},
        [["jacobian", "--level", str(level)],
         ["tower", "--max-level", str(level)],
         ["iwasawa-fit", "--max-level", "2"],
         ["mhg-check"],
         ["zeta", "--level", str(level)],
         ["check-factorization", "--level", str(level)],
         ["derive", "--level", str(level)],
         *_character_jobs(level)])
       for p, rank, level in [(3, 1, 2), (2, 2, 1), (5, 1, 1)]},
}


def _reports(tmp_path, capsys, name, config, commands):
    """Each command's exit code, output without `config_hash` (or the
    derive counts) and error text."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    reports = []
    for argv in commands:
        code = main([*argv, "--config", str(path)])
        out, err = capsys.readouterr()
        out, hashes = _HASH.subn("", out)
        assert hashes == (code == 0)
        if argv[0] == "derive":
            report = json.loads(out)
            out = [report[key] for key in _DERIVE_COUNTS]
        reports.append((argv[0], code, out, err))
    return reports


@pytest.mark.parametrize("job", sorted(_JOBS))
def test_reports_depend_only_on_the_cover(tmp_path, capsys, job):
    config, commands = _JOBS[job]
    rng = random.Random(f"metamorphic {job}")
    expected = _reports(tmp_path, capsys, "original", config, commands)
    assert any(code == 0 for _, code, _, _ in expected)
    transforms = [switch, reverse, relabel]
    if config["group"]["kind"] == "abelian":
        transforms.append(negate)
    for transform in transforms:
        changed = transform(config, rng)
        assert json.dumps(changed) != json.dumps(config)
        assert _reports(tmp_path, capsys, transform.__name__, changed,
                        commands) == expected, transform.__name__
