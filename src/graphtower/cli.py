"""Command-line interface: JSON job configs in, JSON/TSV reports out.

Exit codes: 0 success, 1 invalid job (config file or flags), 2 precondition
violation, 3 resource bound exceeded, 4 internal error (a broken arithmetic
invariant, such as an inexact division).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .cyclotomic import CyclotomicInteger
from .errors import BoundExceededError, ConfigError, GraphTowerError
from .graphs import Multigraph, connected_components
from .grouprings import characters, per_character
from .jacobian import (AbelianGroupStructure, jacobian_structure,
                       level_jacobian)
from .voltage import (QuotientSpec, VoltageAssignment, check_derive_bounds,
                      cover_index_pairs, derive)
from .groups import TowerGroupSpec
from .zeta import (artin_l_inverse, factorization_check, ihara_zeta_inverse,
                   interpolation_check)
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


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_id(x: object) -> bool:
    return isinstance(x, str) or _is_int(x)


def _is_int_list(x: object, length: int | None = None) -> bool:
    return (isinstance(x, list) and all(_is_int(v) for v in x) and
            (length is None or len(x) == length))


def parse_config(path: str | Path) -> JobConfig:
    """Load a JSON job config, checking each node of its schema once.

    The checks here cover types and shapes, so no malformed node reaches a
    library constructor; the constructors check the values, and a
    ValueError they raise is reported as a ConfigError.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "config must be a JSON object")
    try:
        graph = _parse_graph(data.get("graph"))
        spec = _parse_group(data.get("group"))
        alpha = _parse_voltage(data.get("voltage"), graph, spec)
        quotient = (_parse_quotient(data["quotient"], spec)
                    if "quotient" in data else None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    max_level = data.get("max_level", 3)
    _require(_is_int(max_level) and max_level >= 0,
             "max_level must be a nonnegative integer")
    return JobConfig(alpha, quotient, max_level,
                     hashlib.sha256(raw).hexdigest())


def _parse_graph(node: object) -> Multigraph:
    _require(isinstance(node, dict) and isinstance(node.get("vertices"), list)
             and isinstance(node.get("edges"), list),
             "invalid graph description: need vertices and edges lists")
    vertices = node["vertices"]
    _require(len(vertices) > 0, "graph has no vertices")
    _require(all(_is_id(v) for v in vertices),
             "vertex ids must be strings or integers")
    edges = []
    for i, e in enumerate(node["edges"]):
        # tested before the message is formatted: this runs once per edge
        if not (isinstance(e, dict) and _is_id(e.get("id")) and
                isinstance(e.get("ends"), list) and len(e["ends"]) == 2 and
                all(_is_id(v) for v in e["ends"])):
            raise ConfigError(
                f"edge {i} needs a string or integer id and two ends")
        edges.append((e["id"], tuple(e["ends"])))
    # ids are read and written as JSON keys, so 1 and "1" would be one id
    for kind, ids in (("vertex", set(vertices)),
                      ("edge", {eid for eid, _ in edges})):
        _require(len({str(x) for x in ids}) == len(ids),
                 f"two {kind} ids have the same string form")
    return Multigraph.build(vertices, edges)


def _parse_group(node: object) -> TowerGroupSpec:
    _require(isinstance(node, dict), "missing group spec")
    p, kind = node.get("p"), node.get("kind")
    _require(_is_int(p), f"p must be prime, got {p!r}")
    if kind == "abelian":
        rank = node.get("rank", 1)
        _require(_is_int(rank), f"rank must be an integer, got {rank!r}")
        return TowerGroupSpec("abelian", p, rank=rank)
    _require(kind == "metacyclic", f"unknown group kind {kind!r}")
    unit = node.get("action_unit")
    if isinstance(unit, str):
        unit = 1 + p if unit.replace(" ", "") == "1+p" else int(unit)
    _require(unit is None or _is_int(unit),
             f"action_unit must be an integer or \"1+p\", got {unit!r}")
    return TowerGroupSpec("metacyclic", p, action_unit=unit)


def _parse_voltage(node: object, graph: Multigraph,
                   spec: TowerGroupSpec) -> VoltageAssignment:
    """Words are checked here; missing edges and generator indices by
    VoltageAssignment itself."""
    _require(isinstance(node, dict), "missing voltage map")
    for key, word in node.items():
        if not (isinstance(word, list) and
                all(_is_int_list(pair, 2) for pair in word)):
            raise ConfigError(f"malformed voltage word for edge {key}")
    unknown = set(node) - {str(eid) for eid, _ in graph.edges}
    _require(not unknown, f"voltages for unknown edges: {sorted(unknown)}")
    return VoltageAssignment.build(graph, spec, {
        eid: node[str(eid)] for eid, _ in graph.edges if str(eid) in node})


def _parse_quotient(node: object, spec: TowerGroupSpec) -> QuotientSpec:
    exps = node.get("exponents") if isinstance(node, dict) else None
    _require(_is_int_list(exps),
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


def _level(args, default: int = 1) -> int:
    return default if args.level is None else args.level


def _cmd_derive(job: JobConfig, args) -> dict:
    level = _level(args)
    g = derive(job.alpha, level).graph
    components = connected_components(g)
    report = {
        "level": level,
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "connected": len(components) <= 1,
        "num_components": len(components),
    }
    if g.num_edges <= _EDGE_LIST_LIMIT:
        report["edges"] = [
            {"id": [str(e), list(ge)],
             "ends": [[str(v), list(gv)], [str(w), list(gw)]]}
            for (e, ge), ((v, gv), (w, gw)) in g.edges]
    return report


def _cmd_jacobian(job: JobConfig, args) -> dict:
    level = _level(args, 0)
    if level == 0:
        structure = jacobian_structure(job.alpha.base)
        # Pic(X) = Z ⊕ J(X) for a connected X, and J(X) requires one
        pic = AbelianGroupStructure(1, structure.torsion)
        return {"level": 0,
                "jacobian": _structure_json(structure),
                "picard": _structure_json(pic),
                "order": structure.torsion_order}
    structure, e_n = level_jacobian(job.alpha, level)
    return {"level": level,
            "jacobian": _structure_json(structure),
            "order": structure.torsion_order,
            "e_n": e_n}


def _cmd_zeta(job: JobConfig, args) -> dict:
    level = _level(args, 0)
    base = job.alpha.base
    if level:
        num_vertices, pairs = cover_index_pairs(job.alpha, level)
    else:
        num_vertices, pairs = base.num_vertices, base.index_pairs()
    data = ihara_zeta_inverse(num_vertices, pairs)
    return {"level": level, "chi": data.chi,
            "det_part": list(data.det_part.coeffs)}


def _cmd_lfun(job: JobConfig, args) -> dict:
    level = _level(args)
    chars = characters(job.alpha.spec, level)
    check_derive_bounds(job.alpha, level)  # the cover's, though it is not built
    edges = job.alpha.normal_form_edges(level)
    degrees = job.alpha.base.degrees()
    det_parts = per_character(chars, lambda chi, units: artin_l_inverse(
        chi, units, edges, degrees))
    chi_exponent = len(degrees) - len(edges)
    return {"level": level, "l_functions": [
        {"character": list(chi.exponents), "chi_exponent": chi_exponent,
         "det_part": [_cyc_json(c) for c in det_part]}
        for chi, det_part in zip(chars, det_parts)]}


def _cmd_check_interpolation(job: JobConfig, args) -> dict:
    level = _level(args)
    report = interpolation_check(job.alpha, level)
    return {"level": level,
            "all_pass": report.all_pass,
            "per_character": [{"character": list(exponents), "pass": ok}
                              for exponents, ok in report.results]}


def _cmd_check_factorization(job: JobConfig, args) -> dict:
    level = _level(args)
    report = factorization_check(job.alpha, level)
    return {"level": level,
            "polynomial_match": report.polynomial_match,
            "exponent_match": report.exponent_match,
            "pass": report.passed}


def _cmd_tower(job: JobConfig, args) -> dict:
    max_level = job.max_level if args.max_level is None else args.max_level
    report = tower_en(job.alpha, max_level)
    return {"p": report.p,
            "levels": list(report.levels),
            "e": list(report.e),
            "group_orders": list(report.group_orders),
            "jacobians": [list(t) for t in report.jacobians]}


def _cmd_iwasawa_fit(job: JobConfig, args) -> dict:
    out = _cmd_tower(job, args)
    fit = fit_iwasawa(tuple(out["e"]), out["p"])
    out["fit"] = {"mu": fit.mu, "lambda": fit.lam, "nu": fit.nu,
                  "stable": fit.stable, "residuals": list(fit.residuals)}
    return out


def _cmd_fitting(job: JobConfig, args) -> dict:
    level = _level(args)
    gens = fitting_generators(job.alpha, level)
    report: dict = {"level": level, "regular_det": gens.regular}
    if gens.components is not None:
        report["components"] = [
            {"character": list(chi.exponents), "value": _cyc_json(value)}
            for chi, value in gens.components]
    return report


def _cmd_mhg_check(job: JobConfig, args) -> dict:
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
                "f_coeffs": list(det.f.coeffs)}}


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
    go through the same C escaper and a list of plain ints is one join."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{\n" + inner + (",\n" + inner).join(
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in sorted(value.items())) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # exactly int: a bool is an int too, but prints as true/false
        items = (map(int.__repr__, value) if set(map(type, value)) == {int}
                 else (_json_text(item, inner) for item in value))
        return ("[\n" + inner + (",\n" + inner).join(items) + "\n" + indent +
                "]")
    if value is None or isinstance(value, bool):
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphtower",
        description="Exact voltage-cover computations over p-group towers")
    parser.add_argument("subcommand", choices=sorted(_HANDLERS))
    parser.add_argument("--config", required=True, help="JSON job config path")
    parser.add_argument("--level", type=int, default=None)
    parser.add_argument("--max-level", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="directory to write the report in every format")
    parser.add_argument("--format", choices=sorted(_RENDERERS), default="json",
                        help="format of the report printed to stdout")
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _require(min(args.level or 0, args.max_level or 0) >= 0,
                 "--level and --max-level must be nonnegative")
        job = parse_config(args.config)
        report = {"subcommand": args.subcommand,
                  "config_hash": job.config_hash,
                  "version": __version__,
                  **_HANDLERS[args.subcommand](job, args)}
        texts = _render(report, _RENDERERS if args.out else (args.format,))
    except tuple(_EXIT_CODES) as exc:
        code, label = next(entry for kind, entry in _EXIT_CODES.items()
                           if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for fmt, text in texts.items():
                (out_dir / f"{args.subcommand}.{fmt}").write_text(text + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 1
    try:
        print(texts[args.format])
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
