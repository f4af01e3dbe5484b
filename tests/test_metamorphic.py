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

An automorphism φ of G maps X_n of α onto X_n of φ∘α by (v, g) ↦
(v, φ(g)), and the quotient q onto q∘φ⁻¹, so the reports that read the
cover print the same bytes again.  Over an abelian G = Z_p^l, φ is a
unimodular U, and χ_e(U·a) = χ_{Uᵀe}(a): the character reports are
re-keyed, the new entry at e′ being the old one at Uᵀe′ mod p^n.  Over the
metacyclic group, σ ↦ σ^k for k prime to p keeps τστ⁻¹ = σ^u, and no
character report is read, so every byte stays the same.
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
       for p, rank, level in [(3, 1, 2), (2, 2, 1), (5, 1, 1), (3, 2, 1)]},
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


def _unimodular(rng, rank):
    """A random U in GL_rank(Z) and U⁻¹, as lists of rows: shears that add
    k times column s to column t, the first taking generator 1 to the
    letters of generators 0 and 1 (at rank 2, columns (1, 0) and (1, 1))."""
    matrix = [[int(h == g) for g in range(rank)] for h in range(rank)]
    inverse = copy.deepcopy(matrix)
    shears = [(0, 1, 1)] + [(*rng.sample(range(rank), 2),
                             rng.choice([-2, -1, 1, 2])) for _ in range(3)]
    for s, t, k in shears:  # U·(I + k·e_s·e_tᵀ), and its inverse on the left
        for row in matrix:
            row[t] += k * row[s]
        inverse[s] = [x - k * y for x, y in zip(inverse[s], inverse[t])]
    return matrix, inverse


def automorphism(config, matrix, inverse):
    """φ∘α for the automorphism φ(a) = U·a of Z_p^l: each letter (g, x)
    becomes the letters (h, x·U[h][g]) with U[h][g] ≠ 0, and the quotient
    exponents q become q·U⁻¹."""
    new = copy.deepcopy(config)
    new["voltage"] = {key: [[h, x * row[g]] for g, x in word
                            for h, row in enumerate(matrix) if row[g]]
                      for key, word in new["voltage"].items()}
    q = new["quotient"]["exponents"]
    new["quotient"]["exponents"] = [
        sum(q[g] * inverse[g][h] for g in range(len(q)))
        for h in range(len(q))]
    return new


def power_sigma(config, k):
    """φ∘α for the automorphism σ ↦ σ^k, τ ↦ τ of the metacyclic group,
    k prime to p: every generator-0 exponent times k."""
    new = copy.deepcopy(config)
    new["voltage"] = {key: [[g, x * k if g == 0 else x] for g, x in word]
                      for key, word in new["voltage"].items()}
    return new


_CHARACTER_ENTRIES = {"lfun": "l_functions", "fitting": "components",
                      "check-interpolation": "per_character"}


def _moved_characters(reports, matrix, p):
    """The reports with every character entry e′ of lfun, fitting and
    check-interpolation moved to Uᵀe′ mod p^n, in the reports' order of
    characters again."""
    moved = []
    for command, code, out, err in reports:
        if code == 0 and command in _CHARACTER_ENTRIES:
            report = json.loads(out)
            mod = p ** report["level"]
            entries = report[_CHARACTER_ENTRIES[command]]
            for entry in entries:
                e = entry["character"]
                entry["character"] = [
                    sum(row[g] * x for row, x in zip(matrix, e)) % mod
                    for g in range(len(e))]
            entries.sort(key=lambda entry: entry["character"])
            out = json.dumps(report, indent=2, sort_keys=True) + "\n"
        moved.append((command, code, out, err))
    return moved


_AUTOMORPHISM_JOBS = sorted(
    name for name, (config, _) in _JOBS.items()
    if config["group"]["kind"] == "metacyclic" or
    config["group"].get("rank", 1) >= 2)


@pytest.mark.parametrize("job", _AUTOMORPHISM_JOBS)
def test_reports_are_invariant_under_automorphisms_of_g(tmp_path, capsys,
                                                         job):
    config, commands = _JOBS[job]
    rng = random.Random(f"automorphism {job}")
    expected = _reports(tmp_path, capsys, "original", config, commands)
    group = config["group"]
    if group["kind"] == "metacyclic":
        for k in (2, 4, 5):
            changed = power_sigma(config, k)
            assert json.dumps(changed) != json.dumps(config)
            assert _reports(tmp_path, capsys, f"sigma{k}", changed,
                            commands) == expected, k
        return
    rank = group["rank"]
    identity = [[int(h == g) for g in range(rank)] for h in range(rank)]
    checked = 0
    for draw in range(3):
        matrix, inverse = _unimodular(rng, rank)
        assert [[sum(x * y for x, y in zip(row, column))
                 for column in zip(*inverse)] for row in matrix] == identity
        changed = automorphism(config, matrix, inverse)
        assert json.dumps(changed) != json.dumps(config)
        reports = _reports(tmp_path, capsys, f"automorphism{draw}", changed,
                           commands)
        assert _moved_characters(reports, matrix, group["p"]) == expected
        checked += sum(code == 0 and command in _CHARACTER_ENTRIES
                       for command, code, _, _ in reports)
    assert checked == 9
