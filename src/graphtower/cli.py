"""Command-line interface: JSON job configs in, JSON/TSV reports out.

Exit codes: 0 success, 1 invalid job (config file or flags), 2 precondition
violation, 3 resource bound exceeded, 4 internal error (a broken arithmetic
invariant, such as an inexact division).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .cyclotomic import CyclotomicInteger
from .errors import BoundExceededError, ConfigError, GraphTowerError
from .graphs import Multigraph, component_count
from .jacobian import AbelianGroupStructure, level_jacobian
from .voltage import QuotientSpec, VoltageAssignment, cover_index_pairs
from .groups import TowerGroupSpec
from .zeta import (factorization_check, ihara_zeta_inverse,
                   interpolation_check, l_functions)
from .iwasawa import fit_iwasawa, fitting_generators, mhg_check, tower_en

_EDGE_LIST_LIMIT = 500

# exception type -> (exit code, stderr label); the first matching type wins
_EXIT_CODES = {
    ConfigError: (1, "config error"),
    BoundExceededError: (3, "resource bound exceeded"),
    GraphTowerError: (2, "precondition violation"),
    ArithmeticError: (4, "internal error"),
}


@dataclass(frozen=True)
class JobConfig:
    """Validated job description."""

    alpha: VoltageAssignment
    quotient: QuotientSpec | None
    max_level: int
    config_hash: str


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


# JSON nodes have exact types, tested with `is`: a bool is no id, though int
_ID_TYPES = frozenset((str, int))


def parse_config(path: str | Path) -> JobConfig:
    """Load a JSON job config, checking each node of its schema once.

    The checks here cover types and shapes, so no malformed node reaches a
    library constructor; the constructors check the values, and a
    ValueError they raise is reported as a ConfigError.
    """
    try:
        with open(path, "rb") as file:
            raw = file.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(type(data) is dict, "config must be a JSON object")
    try:
        graph = _parse_graph(data.get("graph"))
        spec = _parse_group(data.get("group"))
        alpha = _parse_voltage(data.get("voltage"), graph, spec)
        quotient = (_parse_quotient(data["quotient"], spec)
                    if "quotient" in data else None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    max_level = data.get("max_level", 3)
    _require(type(max_level) is int and max_level >= 0,
             "max_level must be a nonnegative integer")
    return JobConfig(alpha, quotient, max_level,
                     hashlib.sha256(raw).hexdigest())


def _parse_graph(node: object) -> Multigraph:
    _require(type(node) is dict and type(node.get("vertices")) is list
             and type(node.get("edges")) is list,
             "invalid graph description: need vertices and edges lists")
    vertices = node["vertices"]
    _require(len(vertices) > 0, "graph has no vertices")
    _require(set(map(type, vertices)) <= _ID_TYPES,
             "vertex ids must be strings or integers")
    edges = []
    for i, e in enumerate(node["edges"]):
        ends = e.get("ends") if type(e) is dict else None
        if not (type(ends) is list and len(ends) == 2 and {
                type(e.get("id")), type(ends[0]), type(ends[1])} <= _ID_TYPES):
            raise ConfigError(
                f"edge {i} needs a string or integer id and two ends")
        edges.append((e["id"], (ends[0], ends[1])))
    # ids are read and written as JSON keys, so 1 and "1" would be one id
    for kind, ids in (("vertex", set(vertices)),
                      ("edge", {eid for eid, _ in edges})):
        _require(len(set(map(str, ids))) == len(ids),
                 f"two {kind} ids have the same string form")
    return Multigraph.build(vertices, edges)


def _parse_group(node: object) -> TowerGroupSpec:
    _require(type(node) is dict, "missing group spec")
    p, kind = node.get("p"), node.get("kind")
    _require(type(p) is int, f"p must be prime, got {p!r}")
    if kind == "abelian":
        rank = node.get("rank", 1)
        _require(type(rank) is int, f"rank must be an integer, got {rank!r}")
        return TowerGroupSpec("abelian", p, rank=rank)
    _require(kind == "metacyclic", f"unknown group kind {kind!r}")
    unit = node.get("action_unit")
    if type(unit) is str:
        unit = 1 + p if unit.replace(" ", "") == "1+p" else int(unit)
    _require(unit is None or type(unit) is int,
             f"action_unit must be an integer or \"1+p\", got {unit!r}")
    return TowerGroupSpec("metacyclic", p, action_unit=unit)


def _parse_voltage(node: object, graph: Multigraph,
                   spec: TowerGroupSpec) -> VoltageAssignment:
    """Words are checked here; missing edges and generator indices by
    VoltageAssignment itself."""
    _require(type(node) is dict, "missing voltage map")
    for key, word in node.items():
        if not (type(word) is list and all([
                type(pair) is list and len(pair) == 2 and
                type(pair[0]) is int and type(pair[1]) is int
                for pair in word])):
            raise ConfigError(f"malformed voltage word for edge {key}")
    edge_ids = {str(eid): eid for eid, _ in graph.edges}
    unknown = node.keys() - edge_ids
    _require(not unknown, f"voltages for unknown edges: {sorted(unknown)}")
    return VoltageAssignment.build(graph, spec, {
        eid: node[key] for key, eid in edge_ids.items() if key in node})


def _parse_quotient(node: object, spec: TowerGroupSpec) -> QuotientSpec:
    exps = node.get("exponents") if type(node) is dict else None
    _require(type(exps) is list and all([type(x) is int for x in exps]),
             "quotient must be {\"exponents\": [integer, ...]}")
    quotient = QuotientSpec(tuple(exps))
    quotient.validate(spec)
    return quotient


def _cyc_json(x: CyclotomicInteger) -> dict:
    return {"conductor": x.conductor, "coeffs": list(x.coeffs)}


def _structure_json(structure) -> dict:
    return {"free_rank": structure.free_rank,
            "torsion": list(structure.torsion),
            "description": structure.describe()}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a JSON-ready dict


def _cmd_derive(job: JobConfig, flags: dict) -> dict:
    level = flags.get("--level", 1)
    alpha = job.alpha
    num_vertices, pairs = cover_index_pairs(alpha, level)
    components = component_count(num_vertices, pairs)
    report = {
        "level": level,
        "num_vertices": num_vertices,
        "num_edges": len(pairs),
        "connected": components <= 1,
        "num_components": components,
    }
    if len(pairs) <= _EDGE_LIST_LIMIT:
        # vertex i·|G| + k is (v_i, g_k); edge x lies over base edge
        # x // |G| at g_(x mod |G|)
        group = [list(g) for g in alpha.spec.enumerate_group(level)]
        size = len(group)
        vertices = [[str(v), g] for v in alpha.base.vertices for g in group]
        edges = [str(e) for e, _ in alpha.base.edges]
        report["edges"] = [
            {"id": [edges[x // size], group[x % size]],
             "ends": [vertices[i], vertices[j]]}
            for x, (i, j) in enumerate(pairs)]
    return report


def _cmd_jacobian(job: JobConfig, flags: dict) -> dict:
    level = flags.get("--level", 0)
    structure, e_n = level_jacobian(job.alpha, level)
    report = {"level": level, "jacobian": _structure_json(structure)}
    if level == 0:
        # Pic(X) = Z ⊕ J(X) for a connected X, and J(X) requires one
        report["picard"] = _structure_json(
            AbelianGroupStructure(1, structure.torsion))
    report["order"] = structure.torsion_order
    if level:
        report["e_n"] = e_n
    return report


def _cmd_zeta(job: JobConfig, flags: dict) -> dict:
    level = flags.get("--level", 0)
    data = ihara_zeta_inverse(*cover_index_pairs(job.alpha, level))
    return {"level": level, "chi": data.chi,
            "det_part": list(data.det_part)}


def _cmd_lfun(job: JobConfig, flags: dict) -> dict:
    level = flags.get("--level", 1)
    base = job.alpha.base
    chi_exponent = base.num_vertices - base.num_edges
    return {"level": level, "l_functions": [
        {"character": list(chi.exponents), "chi_exponent": chi_exponent,
         "det_part": [_cyc_json(c) for c in det_part]}
        for chi, det_part in l_functions(job.alpha, level)]}


def _cmd_check_interpolation(job: JobConfig, flags: dict) -> dict:
    level = flags.get("--level", 1)
    report = interpolation_check(job.alpha, level)
    return {"level": level,
            "all_pass": report.all_pass,
            "per_character": [{"character": list(exponents), "pass": ok}
                              for exponents, ok in report.results]}


def _cmd_check_factorization(job: JobConfig, flags: dict) -> dict:
    level = flags.get("--level", 1)
    report = factorization_check(job.alpha, level)
    return {"level": level,
            "polynomial_match": report.polynomial_match,
            "exponent_match": report.exponent_match,
            "pass": report.passed}


def _cmd_tower(job: JobConfig, flags: dict) -> dict:
    report = tower_en(job.alpha, flags.get("--max-level", job.max_level))
    return {"p": report.p,
            "levels": list(report.levels),
            "e": list(report.e),
            "group_orders": list(report.group_orders),
            "jacobians": [list(t) for t in report.jacobians]}


def _cmd_iwasawa_fit(job: JobConfig, flags: dict) -> dict:
    out = _cmd_tower(job, flags)
    fit = fit_iwasawa(tuple(out["e"]), out["p"])
    out["fit"] = {"mu": fit.mu, "lambda": fit.lam, "nu": fit.nu,
                  "stable": fit.stable, "residuals": list(fit.residuals)}
    return out


def _cmd_fitting(job: JobConfig, flags: dict) -> dict:
    level = flags.get("--level", 1)
    gens = fitting_generators(job.alpha, level)
    report: dict = {"level": level, "regular_det": gens.regular}
    if gens.components is not None:
        report["components"] = [
            {"character": list(chi.exponents), "value": _cyc_json(value)}
            for chi, value in gens.components]
    return report


def _cmd_mhg_check(job: JobConfig, flags: dict) -> dict:
    if job.quotient is None:
        raise ConfigError("mhg-check requires a quotient spec in the config")
    verdict = mhg_check(job.alpha, job.quotient)
    det = verdict.det
    return {"verdict": verdict.verdict,
            "justification": verdict.justification,
            "mu1": verdict.mu1,
            "lambda1": verdict.lambda1,
            "mu_lower_bound": verdict.mu_lower_bound,
            "lambda1_det": {
                "gamma_low": det.gamma_det.low,
                "gamma_coeffs": list(det.gamma_det.coeffs),
                "cleared_power": det.cleared_power,
                "f_coeffs": list(det.f)}}


_HANDLERS = {
    "derive": _cmd_derive,
    "jacobian": _cmd_jacobian,
    "zeta": _cmd_zeta,
    "lfun": _cmd_lfun,
    "check-interpolation": _cmd_check_interpolation,
    "check-factorization": _cmd_check_factorization,
    "tower": _cmd_tower,
    "iwasawa-fit": _cmd_iwasawa_fit,
    "fitting": _cmd_fitting,
    "mhg-check": _cmd_mhg_check,
}


def _to_tsv(report: dict, prefix: str = "") -> list[str]:
    """Flatten a JSON report into aligned key/value TSV lines."""
    lines = []
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_to_tsv(value, prefix=name + "."))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                lines.extend(_to_tsv(item, prefix=f"{name}[{i}]."))
        else:
            lines.append(f"{name}\t{json.dumps(value)}")
    return lines


_JSON_LITERALS = {True: "true", False: "false", None: "null"}


def _json_text(value, indent: str = "") -> str:
    """The text json.dumps gives for a report with string keys, indented
    by two spaces with sorted keys, byte for byte.  With an indent,
    json.dumps runs its pure-Python encoder a token at a time; here strings
    go through the same C escaper and a list of plain ints is one join.
    Reports hold exact JSON types, so the dispatch is on the exact type."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        return "{\n" + inner + (",\n" + inner).join([
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in sorted(value.items())]) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        # exactly int: a bool is an int too, but prints as true/false
        items = (map(int.__repr__, value) if set(map(type, value)) == {int}
                 else [_json_text(item, inner) for item in value])
        return "[\n" + inner + (",\n" + inner).join(items) + f"\n{indent}]"
    if value is None or kind is bool:
        return _JSON_LITERALS[value]
    return json.dumps(value)


_RENDERERS = {
    "json": _json_text,
    "tsv": lambda report: "\n".join(_to_tsv(report)),
}


def _render(report: dict, formats) -> dict[str, str]:
    """The report's text in each format.  An integer past Python's limit
    on int-to-str conversion (sys.get_int_max_str_digits(), 4300 digits by
    default) is a resource bound: str() raises ValueError on it."""
    try:
        return {fmt: _RENDERERS[fmt](report) for fmt in formats}
    except ValueError as exc:
        raise BoundExceededError(
            f"the report holds an integer past the "
            f"{sys.get_int_max_str_digits()}-digit limit of int-to-str "
            f"conversion") from exc


_FORMATS = "|".join(_RENDERERS)
# flag -> (value name, regular expression of its values, their type, help)
_FLAGS = {
    "--config": ("PATH", ".+", str, "JSON job config path (required)"),
    "--level": ("N", "[0-9]+", int, "cover level, a nonnegative integer"),
    "--max-level": ("N", "[0-9]+", int, "top level, a nonnegative integer"),
    "--out": ("DIR", ".+", str, "directory for the report in every format"),
    "--format": (_FORMATS, _FORMATS, str, "stdout format (default: json)"),
}
_SUBCOMMANDS = ", ".join(sorted(_HANDLERS))
_USAGE = "\n".join([
    "usage: graphtower SUBCOMMAND --config PATH [flags]",
    "subcommands: " + _SUBCOMMANDS,
    "flags, in any order, as --flag VALUE or --flag=VALUE:",
    *(f"  {f + ' ' + n:<20}{t}" for f, (n, *_, t) in _FLAGS.items())])


def _parse_args(argv: list[str]) -> tuple[str, dict] | None:
    """(subcommand, {flag: value}) of a command line; None for -h, --help."""
    subcommands, flags, words = [], {}, iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return None
        if not word.startswith("-"):
            subcommands.append(word)
            continue
        flag, eq, text = word.partition("=")
        _require(flag in _FLAGS, f"unknown flag {flag}")
        name, values, kind, help_text = _FLAGS[flag]
        if not eq:
            text = next(words, "--")
            _require(not text.startswith("--"), f"{flag} needs a value {name}")
        try:
            if not re.fullmatch(values, text):
                raise ValueError(text)
            flags[flag] = kind(text)  # int() fails past the int-to-str limit
        except ValueError:
            raise ConfigError(f"invalid value {text!r} for {flag} {name}: "
                              f"{help_text}") from None
    _require(len(subcommands) == 1 and subcommands[0] in _HANDLERS,
             f"expected one subcommand of {_SUBCOMMANDS}, got {subcommands}")
    _require("--config" in flags, "--config PATH is required")
    return subcommands[0], flags


def main(argv: list[str] | None = None) -> int:
    try:
        command = _parse_args(sys.argv[1:] if argv is None else argv)
        if command is None:
            print(_USAGE)
            return 0
        subcommand, flags = command
        out, fmt = flags.get("--out"), flags.get("--format", "json")
        job = parse_config(flags["--config"])
        report = {"subcommand": subcommand,
                  "config_hash": job.config_hash,
                  "version": __version__,
                  **_HANDLERS[subcommand](job, flags)}
        texts = _render(report, _RENDERERS if out else (fmt,))
    except tuple(_EXIT_CODES) as exc:
        code, label = next(entry for kind, entry in _EXIT_CODES.items()
                           if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    if out:
        out_dir = Path(out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, text in texts.items():
                (out_dir / f"{subcommand}.{name}").write_text(text + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 1
    try:
        print(texts[fmt])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader is gone; with stdout on devnull, the flush at
        # interpreter shutdown has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
