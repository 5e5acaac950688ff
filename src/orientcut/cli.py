"""Command-line front end: JSON reports on stdout, summaries on stderr.

Reports carry no wall-clock fields and serialize with sorted keys, and the
search is sequential and not random, so identical inputs reproduce them byte
for byte; timing goes to the stderr summary instead. Exit codes: 0 solved,
2 infeasible, 3 time limit, 1 usage or input trouble.

`main` turns `--time-limit` into one deadline, a `time.monotonic()` reading
taken once after the arguments parse, and every command hands that deadline
to all of its solves, so the limit bounds the whole command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from typing import Dict, List, Optional, Tuple

from .dimacs import parse_dimacs
from .errors import InfeasibleError, InputError, SizeRefusalError, TimeLimitError
from .fap import (
    BRUTE_MAX_FREQ,
    FapInstance,
    brute_force_fixed_spectrum,
    brute_force_min_spectrum,
    brute_force_soft_cost,
    min_spectrum,
    solve_fixed_spectrum,
    solve_soft_cost,
)
from .graphs import (
    BidirectedDigraph,
    UndirectedGraph,
    dag_longest_path,
    enumerate_cycles,
    enumerate_paths_k,
    longest_path_labels,
    source_decomposition,
)
from .model import AO, AS, ModelConfig, ModelPoint, check_integral_feasible, row_cycle, row_path
from .polytope import (
    brute_force_chromatic,
    brute_force_optimum,
    classify_face,
    enumerate_feasible_points,
    polytope_dimension,
)
from .separation import TEMPLATE_TAGS, template_rows
from .solver import SolveReport, min_diameter_orientation, solve_ao

DEFAULT_TIME_LIMIT = 300.0
ROW_CLASSES = ("cycle", "path") + TEMPLATE_TAGS


class _Parser(argparse.ArgumentParser):
    """Argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        if abs(obj - round(obj)) < 1e-9:
            return int(round(obj))
        return obj
    return obj


def _emit(report: dict, summary: str, started: float, code: int = 0) -> int:
    """Print the report and its summary line; return the exit code `code`."""
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    sys.stderr.write(f"{summary} [{time.perf_counter() - started:.2f}s]\n")
    return code


def _read_instance(path: str) -> Tuple[str, str]:
    """The file's text and a digest of its bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    return text, hashlib.sha256(raw).hexdigest()[:16]


def _aggregate(reports: List[SolveReport]) -> dict:
    cuts: Dict[str, int] = {}
    for rep in reports:
        for tag, count in rep.cut_counts.items():
            cuts[tag] = cuts.get(tag, 0) + count
    history = reports[-1].root_bound_history if reports else []
    return {
        "nodes": sum(r.node_count for r in reports),
        "pruned": sum(r.pruned_count for r in reports),
        "solves": len(reports),
        "cutCounts": cuts,
        "boundHistory": list(history),
    }


def cmd_color(args, deadline: float) -> int:
    text, digest = _read_instance(args.file)
    g = parse_dimacs(text)
    started = time.perf_counter()
    reports: List[SolveReport] = []
    try:
        orient, q = min_diameter_orientation(g, reports=reports, deadline=deadline)
    except TimeLimitError:
        return _emit({"command": "color", "digest": digest, "status": "timeout"},
                     "time limit reached", started, 3)
    d = BidirectedDigraph(g)
    arcs = orient.arcs()
    if g.m:
        point = ModelPoint(tuple(1.0 if a in arcs else 0.0 for a in range(d.num_arcs)),
                           float(q))
        ok, witness = check_integral_feasible(
            d, ModelConfig(kappa=q + 1, variant=AO, z_fixed=float(q)), point)
        if not ok:
            raise InputError(f"orientation failed the final recheck: {witness}")
        if dag_longest_path(d, arcs) != q:
            raise InputError("orientation diameter disagrees with the reported optimum")
    colors = longest_path_labels(d, arcs)
    for i, j in g.edges:
        if colors[i] == colors[j]:
            raise InputError("coloring left an edge monochromatic")
    chi = q + 1
    report = {"command": "color", "digest": digest, "status": "optimal", "chromatic": chi,
              "classes": source_decomposition(d, arcs), **_aggregate(reports)}
    if args.oracle:
        report["oracleAgrees"] = brute_force_chromatic(g) == chi
    _emit(report, f"chromatic number {chi} ({report['nodes']} nodes, "
          f"{report['solves']} window solves)", started)
    return 0 if not args.oracle or report["oracleAgrees"] else 1


def cmd_orient(args, deadline: float) -> int:
    text, digest = _read_instance(args.file)
    g = parse_dimacs(text)
    started = time.perf_counter()
    rep = solve_ao(g, args.kappa, deadline=deadline)
    base = {"command": "orient", "digest": digest, "kappa": args.kappa,
            "status": rep.status, "bound": rep.bound,
            "nodes": rep.node_count, "pruned": rep.pruned_count,
            "cutCounts": dict(rep.cut_counts),
            "boundHistory": list(rep.root_bound_history)}
    if rep.status == "timeout":
        return _emit(base, "time limit reached", started, 3)
    if rep.status == "infeasible":
        return _emit(base, "infeasible", started, 2)
    point = rep.best_point
    ok, witness = check_integral_feasible(
        BidirectedDigraph(g), ModelConfig(kappa=args.kappa, variant=AO), point)
    if not ok:
        raise InputError(f"orientation failed the final recheck: {witness}")
    base["z"] = rep.objective
    base["arcs"] = sorted(point.arc_set())
    if args.oracle:
        value, _ = brute_force_optimum(g, ModelConfig(kappa=args.kappa, variant=AO))
        base["oracleAgrees"] = abs(value - rep.objective) < 1e-6
    _emit(base, f"window load {rep.objective:g} at kappa {args.kappa} "
          f"({rep.node_count} nodes)", started)
    return 0 if not args.oracle or base["oracleAgrees"] else 1


def _fap_oracle(inst: FapInstance, mode: str, result) -> bool:
    if mode == "minimum":
        phi, _ = result
        if phi > BRUTE_MAX_FREQ:
            raise SizeRefusalError(f"oracle scan capped at frequency {BRUTE_MAX_FREQ}")
        expect, _assign = brute_force_min_spectrum(inst)
        return phi == expect
    if mode == "fixed":
        try:
            brute_force_fixed_spectrum(inst)
        except InfeasibleError:
            return False
        return True
    cost, _assign = brute_force_soft_cost(inst)
    return abs(cost - result.total_cost) < 1e-6


def _fap_oracle_infeasible(inst: FapInstance, mode: str) -> bool:
    try:
        if mode == "minimum":
            brute_force_min_spectrum(inst)
        elif mode == "fixed":
            brute_force_fixed_spectrum(inst)
        else:
            brute_force_soft_cost(inst)
    except InfeasibleError:
        return True
    return False


def cmd_fap(args, deadline: float) -> int:
    text, digest = _read_instance(args.file)
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InputError(f"bad JSON in {args.file}: {exc}") from None
    inst = FapInstance.from_dict(data)
    if inst.has_costs:
        mode = "soft"
        if inst.spectrum is None:
            raise InputError("soft instances need the spectrum field")
    elif inst.spectrum is not None:
        mode = "fixed"
    else:
        mode = "minimum"
    started = time.perf_counter()
    reports: List[SolveReport] = []
    report = {"command": "fap", "digest": digest, "mode": mode,
              "links": inst.links, "spectrum": inst.spectrum}
    try:
        if mode == "soft":
            result = solve_soft_cost(inst, reports=reports, deadline=deadline)
        elif mode == "fixed":
            result = solve_fixed_spectrum(inst, reports=reports, deadline=deadline)
        else:
            result = min_spectrum(inst, reports=reports, deadline=deadline)
    except TimeLimitError:
        report.update(status="timeout", **_aggregate(reports))
        return _emit(report, "time limit reached", started, 3)
    except InfeasibleError as exc:
        bound = getattr(exc, "bound", math.inf)
        report.update(status="infeasible", bound=bound, **_aggregate(reports))
        if args.oracle:
            report["oracleAgrees"] = _fap_oracle_infeasible(inst, mode)
        return _emit(report, "infeasible", started, 2)
    if mode == "minimum":
        phi, assignment = result
        report["spectrum"] = phi
        summary = f"minimum spectrum {phi}"
    else:
        assignment = result
        summary = (f"total violation cost {assignment.total_cost:g}" if mode == "soft"
                   else f"feasible within spectrum {inst.spectrum}")
    assignment.verify(inst if mode != "minimum" else inst.with_spectrum(report["spectrum"]))
    report.update(status="optimal", frequencies=list(assignment.freq),
                  violatedPairs=[list(p) for p in sorted(assignment.violated_pairs)],
                  totalCost=assignment.total_cost, **_aggregate(reports))
    if args.oracle:
        report["oracleAgrees"] = _fap_oracle(inst, mode, result)
    _emit(report, summary + f" ({report['nodes']} nodes)", started)
    return 0 if not args.oracle or report["oracleAgrees"] else 1


def _class_rows(g: UndirectedGraph, kappa: int, cls: str):
    d = BidirectedDigraph(g)
    if cls == "cycle":
        rows = (row_cycle(d, c) for c in enumerate_cycles(d, d.n))
    elif cls == "path":
        rows = (row_path(d, p, kappa) for p in enumerate_paths_k(d, kappa))
    else:
        rows = template_rows(d, kappa, tags=(cls,))
    seen = {}
    for row in rows:
        seen.setdefault(row.key, row)
    return [seen[k] for k in sorted(seen)]


def cmd_polytope(args, deadline: float) -> int:
    text, digest = _read_instance(args.file)
    g = parse_dimacs(text)
    started = time.perf_counter()
    cfg = ModelConfig(kappa=args.kappa, variant=AS)
    timeout = {"command": "polytope", "digest": digest, "status": "timeout"}
    points = enumerate_feasible_points(g, cfg)
    if time.monotonic() >= deadline:
        return _emit(timeout, "time limit reached", started, 3)
    dim = polytope_dimension(g, cfg, points)
    report = {"command": "polytope", "digest": digest, "kappa": args.kappa,
              "status": "ok", "dimension": dim, "fullDimension": 2 * g.m + 1,
              "points": len(points)}
    summary = f"dimension {dim} of {2 * g.m + 1} over {len(points)} points"
    if args.classify:
        details = []
        facets = valid = 0
        for row in _class_rows(g, args.kappa, args.classify):
            if time.monotonic() >= deadline:
                return _emit(timeout, "time limit reached", started, 3)
            face = classify_face(g, cfg, row, points, dim)
            facets += face.is_facet
            valid += face.valid
            details.append({"support": sorted(row.coeffs), "zCoeff": row.z_coeff,
                            "rhs": row.rhs, "valid": face.valid,
                            "isFacet": face.is_facet,
                            "faceDimension": face.face_dimension,
                            "tightCount": face.tight_count})
        report.update({"class": args.classify, "rows": details,
                       "validCount": valid, "facetCount": facets})
        summary += (f"; {args.classify}: {len(details)} rows, "
                    f"{valid} valid, {facets} facets")
    return _emit(report, summary, started)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also false for NaN
        raise argparse.ArgumentTypeError("must be a nonnegative number of seconds")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--time-limit", type=_seconds, default=DEFAULT_TIME_LIMIT,
                     metavar="S", help="time limit in seconds for the whole command")
    sub.add_argument("--seed", type=int, default=1,
                     help="accepted and ignored; nothing in the solver is random")
    sub.add_argument("--threads", type=_positive_int, default=1,
                     help="accepted and ignored; the search is sequential")
    sub.add_argument("--oracle", action="store_true",
                     help="cross-check against brute-force enumeration (small instances)")


def build_parser() -> _Parser:
    parser = _Parser(prog="orientcut",
                     description="Exact acyclic orientation solving under path constraints")
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = subs.add_parser("color", help="chromatic number of a DIMACS graph")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_color)

    p = subs.add_parser("orient", help="minimum window load over acyclic orientations")
    p.add_argument("file")
    p.add_argument("--kappa", type=int, required=True, help="path window length")
    _add_common(p)
    p.set_defaults(func=cmd_orient)

    p = subs.add_parser("fap", help="frequency assignment from a JSON instance")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_fap)

    p = subs.add_parser("polytope", help="dimension and face classification lab")
    p.add_argument("file")
    p.add_argument("--kappa", type=int, required=True, help="path window length")
    p.add_argument("--classify", choices=ROW_CLASSES, metavar="CLASS",
                   help=f"classify every row of one class ({', '.join(ROW_CLASSES)})")
    _add_common(p)
    p.set_defaults(func=cmd_polytope)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    deadline = time.monotonic() + args.time_limit
    try:
        return args.func(args, deadline)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
