"""Correctness checks on CLI job outputs, independent of the package.

The checks rebuild what they need from the job config with their own
arithmetic (group law, cover Laplacian, Bareiss determinant, cyclotomic
products) and never call into `graphtower`.  Each check returns a list of
problems; an empty list means the job's outputs are verified.
"""

from __future__ import annotations

import json
from itertools import product
from math import prod

DROPPED_KEYS = ("config_hash", "version")


def canonical(report: dict) -> str:
    """A job output without its config hash and version, as stable JSON."""
    body = {k: v for k, v in report.items() if k not in DROPPED_KEYS}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


# -- group law of G^(n), rebuilt from the config ---------------------------

class _Group:
    def __init__(self, group: dict, n: int) -> None:
        self.p = group["p"]
        self.mod = self.p ** n
        self.metacyclic = group["kind"] == "metacyclic"
        self.width = 2 if self.metacyclic else group["rank"]

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(range(self.mod), repeat=self.width))

    def mul(self, a, b):
        m = self.mod
        if not self.metacyclic:
            return tuple((x + y) % m for x, y in zip(a, b))
        u = (1 + self.p) % m
        return ((a[0] + b[0] * pow(u, a[1], m)) % m, (a[1] + b[1]) % m)

    def word(self, word) -> tuple[int, ...]:
        value = (0,) * self.width
        for gen, exp in word:
            g = [0] * self.width
            g[gen] = exp % self.mod  # <generator> is cyclic in both kinds
            value = self.mul(value, tuple(g))
        return value


def cover_laplacian(config: dict, n: int) -> list[list[int]]:
    """Laplacian of the level-n derived graph, built from the config."""
    group = _Group(config["group"], n)
    elements = group.elements()
    vertices = config["graph"]["vertices"]
    index = {(v, g): i for i, (v, g) in
             enumerate((v, g) for v in vertices for g in elements)}
    size = len(index)
    lap = [[0] * size for _ in range(size)]
    for edge in config["graph"]["edges"]:
        v, w = edge["ends"]
        a = group.word(config["voltage"][edge["id"]])
        for g in elements:
            i, j = index[(v, g)], index[(w, group.mul(g, a))]
            if i != j:
                lap[i][i] += 1
                lap[j][j] += 1
                lap[i][j] -= 1
                lap[j][i] -= 1
    return lap


def bareiss_det(matrix: list[list[int]]) -> int:
    """Fraction-free determinant with first-nonzero pivoting."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        row_k, pivot = m[k], m[k][k]
        for i in range(k + 1, n):
            row_i, head = m[i], m[i][k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


# -- cyclotomic products ----------------------------------------------------

def cyclotomic_product(values: list[dict], p: int, n: int) -> list[int]:
    """Product of elements of Z[zeta_{p^n}], reduced modulo Phi_{p^n}."""
    phi = (p - 1) * p ** (n - 1)
    step = p ** (n - 1)
    acc = [1] + [0] * (phi - 1)
    for value in values:
        coeffs = value["coeffs"]
        full = [0] * (2 * phi - 1)
        for i, a in enumerate(acc):
            if a:
                for j, b in enumerate(coeffs):
                    if b:
                        full[i + j] += a * b
        # x^phi = -(1 + x^step + ... + x^{(p-2) step}) modulo Phi_{p^n}
        for d in range(len(full) - 1, phi - 1, -1):
            c = full[d]
            if c:
                full[d] = 0
                for i in range(p - 1):
                    full[d - phi + i * step] -= c
        acc = full[:phi]
    return acc


# -- per-workload checks -----------------------------------------------------

def check_tower(config: dict, reports: list[dict]) -> list[str]:
    fit, mhg = reports
    problems = []
    torsion = fit["jacobians"]
    orders = [prod(t) for t in torsion]
    top = len(orders) - 1
    if fit["levels"] != list(range(top + 1)) or top < 2:
        problems.append(f"levels {fit['levels']}")
    for n in range(1, top + 1):
        if orders[n] % orders[n - 1]:
            problems.append(f"|J(X_{n - 1})| does not divide |J(X_{n})|")
    lap = cover_laplacian(config, top)
    trees = bareiss_det([row[1:] for row in lap[1:]])
    if trees != orders[top]:
        problems.append(f"matrix-tree count {trees} != torsion order "
                        f"{orders[top]} at level {top}")
    if mhg["verdict"] not in ("HOLDS", "INCONCLUSIVE"):
        problems.append(f"verdict {mhg['verdict']!r}")
    return problems


def check_characters(config: dict, reports: list[dict]) -> list[str]:
    interp, fitting = reports
    problems = []
    if not interp["all_pass"]:
        problems.append("interpolation identity failed")
    regular = fitting["regular_det"]
    components = fitting.get("components")
    if regular is not None and components is not None:
        p, n = config["group"]["p"], fitting["level"]
        total = cyclotomic_product([c["value"] for c in components], p, n)
        if total != [regular] + [0] * (len(total) - 1):
            problems.append("product of character components != regular_det")
    return problems


def check_zeta(config: dict, reports: list[dict]) -> list[str]:
    factorization, zeta = reports
    problems = []
    if not (factorization["pass"] and factorization["polynomial_match"] and
            factorization["exponent_match"]):
        problems.append("zeta factorization failed")
    if zeta["det_part"][:1] != [1]:
        problems.append(f"zeta constant term {zeta['det_part'][:1]}")
    order = len(_Group(config["group"], zeta["level"]).elements())
    graph = config["graph"]
    expected_chi = order * (len(graph["vertices"]) - len(graph["edges"]))
    if zeta["chi"] != expected_chi:
        problems.append(f"Euler characteristic {zeta['chi']} != {expected_chi}")
    return problems


CHECKS = {
    "tower_growth": check_tower,
    "character_identities": check_characters,
    "cover_zeta": check_zeta,
}
