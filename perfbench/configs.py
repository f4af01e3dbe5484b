"""Seeded job configs for the benchmark workloads.

Every config is a CLI job file (see the package README): a random connected
base multigraph, a tower group, a voltage per edge and, for tower jobs, a
Z_p-quotient.  The same seed always yields the same configs, byte for byte.

Jobs cycle through a workload's strata in order, so any prefix of the job
list has the same mix of (kind, p, rank, level, base size); only the random
topology and voltages differ from seed to seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# Fresh voltage draws before the generator repairs a config by adding one
# loop per generator: bounded, so it never spins.  The repair makes bases
# denser, and a repaired metacyclic base took 5.8 s in Smith normal form,
# so draws are cheap and plentiful and repairs all but never happen.
_CRITERION_RETRIES = 50


@dataclass(frozen=True)
class Stratum:
    """One cell of a workload mix."""

    kind: str        # "abelian" | "metacyclic"
    p: int
    rank: int        # abelian rank (2 generators for metacyclic)
    vertices: int    # base vertices
    extra_edges: int  # edges beyond a spanning tree (loops allowed)
    level: int       # N for tower jobs (levels 0..N), n otherwise

    @property
    def generators(self) -> int:
        return self.rank if self.kind == "abelian" else 2

    @property
    def cover_vertices(self) -> int:
        return self.vertices * self.p ** (self.level * self.generators)


def _ab(p, rank, vertices, extra, level):
    return Stratum("abelian", p, rank, vertices, extra, level)


def _mc(p, vertices, extra, level):
    return Stratum("metacyclic", p, 1, vertices, extra, level)


# tower_growth: top covers of 18-50 vertices, levels 0..N with N >= 2.
# Smith normal form falls off a cliff past this.  Over 100-400 seeded
# configs per cell, about one job in 50 took over 1 s (some over 10 s) for
# 54-64-vertex covers, and for 48-vertex covers with three extra base edges
# or with rank-2 or metacyclic voltages; rank-2 and metacyclic covers of
# 32 vertices over bases with 4-6 edges took up to 1.1 s.  Every cell kept
# here stayed under 0.3 s.  A metacyclic p = 3 tower reaches 81 vertices at
# level 2 even over a one-vertex base (over 100 s), so rank-2 and metacyclic
# towers use p = 2 and two-vertex bases with two extra edges only.
TOWER_STRATA = (
    _ab(2, 1, 2, 2, 4), _ab(2, 1, 2, 3, 4), _ab(2, 1, 3, 2, 4),
    _ab(2, 1, 4, 2, 3), _ab(2, 1, 4, 3, 3), _ab(3, 1, 2, 2, 2),
    _ab(3, 1, 2, 3, 2), _ab(3, 1, 3, 2, 2), _ab(3, 1, 4, 3, 2),
    _ab(5, 1, 2, 2, 2), _ab(2, 2, 2, 2, 2), _mc(2, 2, 2, 2),
)

# character_identities: abelian (Z/p^n)^l with phi(p^n) in {1, 2, 4, 6, 8,
# 10, 12, 16, 18} over bases of 3-6 vertices.  phi = 20 ((Z/25), three
# vertices) is left out: its per-job spread is as large as its mean and it
# alone made throughput vary by 7 % from seed to seed.
CHARACTER_STRATA = (
    _ab(2, 1, 4, 3, 1), _ab(2, 2, 3, 2, 1), _ab(2, 3, 3, 2, 1),
    _ab(2, 1, 5, 3, 2), _ab(2, 1, 4, 3, 3), _ab(2, 1, 3, 2, 4),
    _ab(2, 1, 3, 2, 5), _ab(3, 1, 4, 3, 1), _ab(3, 2, 3, 2, 1),
    _ab(3, 1, 3, 2, 2), _ab(3, 1, 3, 2, 3), _ab(5, 1, 6, 3, 1),
    _ab(7, 1, 4, 3, 1), _ab(11, 1, 3, 2, 1), _ab(13, 1, 3, 2, 1),
)

# cover_zeta: abelian covers of 10-32 vertices over small bases, where the
# cover's det_int (size |G|*|V|) outweighs the per-character cyclotomic
# determinants (size |V|).  `check-factorization` on a 64-vertex cover
# takes about 2 s and on a 96-vertex cover about 11 s, too slow for the
# hundreds of jobs a steady p90 needs.  The costliest cell, 32 vertices
# over Z/4 x Z/4, runs three times per round (a fifth of the jobs), so
# that p90 falls in the middle of its latency range rather than at its
# lower edge.
ZETA_STRATA = (
    _ab(5, 1, 2, 2, 1), _ab(2, 2, 3, 2, 1), _ab(2, 1, 2, 3, 3),
    _ab(3, 2, 2, 2, 1), _ab(2, 2, 2, 2, 2), _ab(3, 1, 2, 2, 2),
    _ab(2, 3, 2, 3, 1), _ab(2, 1, 2, 2, 3), _ab(2, 2, 2, 2, 2),
    _ab(3, 1, 2, 3, 2), _ab(2, 3, 2, 2, 1), _ab(7, 1, 3, 2, 1),
    _ab(2, 3, 3, 2, 1), _ab(2, 1, 3, 2, 3), _ab(3, 1, 3, 2, 2),
    _ab(2, 2, 2, 2, 2),
)

STRATA = {
    "tower_growth": TOWER_STRATA,
    "character_identities": CHARACTER_STRATA,
    "cover_zeta": ZETA_STRATA,
}


@dataclass(frozen=True)
class Job:
    """A generated job: its config file, stratum and CLI argument lists.

    `commands` are timed; `check_commands` run outside the timed region and
    feed only the correctness checks.
    """

    index: int
    path: Path
    stratum: Stratum
    commands: tuple[tuple[str, ...], ...]
    check_commands: tuple[tuple[str, ...], ...]


def _base_graph(rng: random.Random, nv: int, extra: int) -> list[tuple[int, int]]:
    """Random spanning tree on nv vertices plus extra edges (loops allowed)."""
    edges = [(v, rng.randrange(v)) for v in range(1, nv)]
    edges += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(extra)]
    return edges


def _voltages(rng: random.Random, stratum: Stratum,
              edge_count: int) -> list[list[list[int]]]:
    """A generator word per edge with exponents in 1..p^level."""
    mod = stratum.p ** stratum.level
    return [[[g, rng.randrange(1, mod + 1)]
             for g in range(stratum.generators) if rng.random() < 0.6]
            for _ in range(edge_count)]


def _config(stratum: Stratum, edges, words) -> dict:
    if stratum.kind == "abelian":
        group = {"kind": "abelian", "p": stratum.p, "rank": stratum.rank}
        quotient = [1] + [0] * (stratum.rank - 1)
    else:
        group = {"kind": "metacyclic", "p": stratum.p, "action_unit": "1+p"}
        quotient = [0, 1]
    names = [f"e{i}" for i in range(len(edges))]
    return {
        "graph": {
            "vertices": [f"v{i}" for i in range(stratum.vertices)],
            "edges": [{"id": name, "ends": [f"v{a}", f"v{b}"]}
                      for name, (a, b) in zip(names, edges)]},
        "group": group,
        "voltage": dict(zip(names, words)),
        "quotient": {"exponents": quotient},
        "max_level": stratum.level,
    }


def _satisfies_criterion(config: dict) -> bool:
    """The package's connectivity criterion: every level X_n is connected."""
    from graphtower import (Multigraph, TowerGroupSpec, VoltageAssignment,
                            connectivity_criterion)
    graph = Multigraph.build(
        config["graph"]["vertices"],
        [(e["id"], tuple(e["ends"])) for e in config["graph"]["edges"]])
    group = dict(config["group"])
    kind = group.pop("kind")
    if kind == "metacyclic":
        spec = TowerGroupSpec(kind, group["p"])
    else:
        spec = TowerGroupSpec(kind, group["p"], rank=group["rank"])
    alpha = VoltageAssignment.build(graph, spec, config["voltage"])
    return connectivity_criterion(alpha)


def make_config(rng: random.Random, stratum: Stratum) -> dict:
    """One config of the stratum whose every cover X_n is connected.

    Fresh voltages are drawn a few times; if none satisfies the criterion,
    one loop per generator carrying that generator is appended, whose cycle
    values alone span G/G^p.
    """
    edges = _base_graph(rng, stratum.vertices, stratum.extra_edges)
    # fewer independent cycles than generators can never span G/G^p
    retries = (_CRITERION_RETRIES
               if stratum.extra_edges >= stratum.generators else 0)
    for _ in range(retries):
        config = _config(stratum, edges, _voltages(rng, stratum, len(edges)))
        if _satisfies_criterion(config):
            return config
    words = _voltages(rng, stratum, len(edges))
    for g in range(stratum.generators):
        v = rng.randrange(stratum.vertices)
        edges.append((v, v))
        words.append([[g, 1]])
    return _config(stratum, edges, words)


def _commands(workload: str, path: Path, stratum: Stratum):
    """(timed commands, check-only commands) of one job."""
    cfg = ("--config", str(path))
    level = str(stratum.level)
    if workload == "tower_growth":
        return ((("iwasawa-fit", *cfg, "--max-level", level),
                 ("mhg-check", *cfg)), ())
    if workload == "character_identities":
        return ((("check-interpolation", *cfg, "--level", level),
                 ("fitting", *cfg, "--level", level)), ())
    return ((("check-factorization", *cfg, "--level", level),),
            (("zeta", *cfg, "--level", level),))


def generate(workload: str, seed: int, count: int, out_dir: Path,
             tick=lambda: None) -> list[Job]:
    """Write `count` unique configs of a workload and return their jobs.

    `tick` is called between configs (the set-up speed probe).
    """
    strata = STRATA[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    seen: set[str] = set()
    while len(jobs) < count:
        tick()
        stratum = strata[len(jobs) % len(strata)]
        text = json.dumps(make_config(rng, stratum), sort_keys=True)
        if text in seen:
            continue
        seen.add(text)
        path = out_dir / f"job{len(jobs):05d}.json"
        path.write_text(text)
        jobs.append(Job(len(jobs), path, stratum,
                        *_commands(workload, path, stratum)))
    return jobs


def describe(jobs: list[Job]) -> dict:
    """Input properties of a job list: mix and vertex-count histograms."""
    mix = Counter(f"{j.stratum.kind}/p={j.stratum.p}/rank={j.stratum.rank}"
                  f"/level={j.stratum.level}" for j in jobs)
    base = Counter(j.stratum.vertices for j in jobs)
    cover = Counter(_bucket(j.stratum.cover_vertices) for j in jobs)
    return {"jobs": len(jobs),
            "mix": dict(sorted(mix.items())),
            "base_vertices": dict(sorted(base.items())),
            "cover_vertices": dict(sorted(cover.items()))}


def _bucket(n: int) -> str:
    low = (n - 1) // 25 * 25 + 1
    return f"{low:03d}-{low + 24:03d}"
