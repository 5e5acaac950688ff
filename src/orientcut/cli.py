"""Command-line front end: JSON reports on stdout, summaries on stderr.

Reports carry no wall-clock fields and serialize with sorted keys, and the
search is sequential and not random, so identical inputs reproduce them byte
for byte; timing goes to the stderr summary instead.

`main` reads the instance, turns `--time-limit` into one deadline, a
`time.monotonic()` reading taken once after the arguments parse, and hands
both to the command, which passes that deadline to all of its solves, so the
limit bounds the whole command. Each command returns its report and summary;
`main` alone stamps, prints and picks the exit code: 1 for usage or input
trouble or an oracle that disagrees, whatever the verdict; else 2 infeasible,
3 time limit, 0 solved. An oracle that refuses an instance past its scan's
size cap leaves `oracleAgrees` null and the exit code as it is.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from .dimacs import parse_dimacs
from .errors import ContractError, InfeasibleError, InputError, SizeRefusalError, TimeLimitError
from .fap import (
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
    enumerate_cycles,
    enumerate_paths_k,
    greedy_clique,
    source_decomposition,
)
from .model import AO, AS, ModelConfig, check_integral_feasible, row_cycle, row_path
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
EXIT_CODES = {"infeasible": 2, "timeout": 3}
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


def _emit(report: dict, summary: str, started: float) -> None:
    """Print the report and its summary line. A reader that closes stdout
    early ends the report quietly: the rest of it, and the flush at exit, go
    to os.devnull."""
    try:
        print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
    sys.stderr.write(f"{summary} [{time.perf_counter() - started:.2f}s]\n")


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


def _oracle(check: Callable[[], bool]) -> Optional[bool]:
    """The brute-force verdict, or None when the scan refuses the instance."""
    try:
        return check()
    except SizeRefusalError as exc:
        sys.stderr.write(f"oracle refused: {exc}\n")
        return None


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


def cmd_color(args, text: str, deadline: float) -> Tuple[dict, str]:
    g = parse_dimacs(text)
    reports: List[SolveReport] = []
    try:
        orient, q = min_diameter_orientation(g, reports=reports, deadline=deadline)
    except TimeLimitError as exc:
        # how far it got: the best colouring so far, and the largest greedy
        # clique, from every seed, as a lower bound
        classes = source_decomposition(BidirectedDigraph(g), exc.orientation.arcs())
        lower = len(greedy_clique(g, tries=g.n))
        return ({"status": "timeout", "lower": lower, "upper": len(classes),
                 "classes": classes, **_aggregate(reports)},
                f"time limit reached ({lower} to {len(classes)} colours)")
    # one longest-path pass checks the answer: acyclic, q + 1 layers, each
    # an independent set, and the layers are the reported classes
    try:
        classes = source_decomposition(BidirectedDigraph(g), orient.arcs())
    except ContractError:
        raise InputError("orientation failed the final recheck: directed cycle") from None
    layer = {v: k for k, members in enumerate(classes) for v in members}
    if len(classes) != q + 1 or any(layer[i] == layer[j] for i, j in g.edges):
        raise InputError(f"coloring failed the final recheck: {len(classes)} layers, "
                         f"window optimum {q}")
    chi = q + 1
    report = {"status": "optimal", "chromatic": chi, "classes": classes,
              **_aggregate(reports)}
    if args.oracle:
        report["oracleAgrees"] = _oracle(lambda: brute_force_chromatic(g) == chi)
    return report, (f"chromatic number {chi} ({report['nodes']} nodes, "
                    f"{report['solves']} window solves)")


def cmd_orient(args, text: str, deadline: float) -> Tuple[dict, str]:
    g = parse_dimacs(text)
    rep = solve_ao(g, args.kappa, deadline=deadline)
    base = {"kappa": args.kappa, "status": rep.status, "bound": rep.bound,
            "nodes": rep.node_count, "pruned": rep.pruned_count,
            "cutCounts": dict(rep.cut_counts),
            "boundHistory": list(rep.root_bound_history)}
    if rep.status != "optimal":
        return base, "time limit reached" if rep.status == "timeout" else "infeasible"
    point = rep.best_point
    cfg = ModelConfig(kappa=args.kappa, variant=AO)
    ok, witness = check_integral_feasible(BidirectedDigraph(g), cfg, point)
    if not ok:
        raise InputError(f"orientation failed the final recheck: {witness}")
    base["z"] = rep.objective
    base["arcs"] = sorted(point.arc_set())
    if args.oracle:
        base["oracleAgrees"] = _oracle(
            lambda: abs(brute_force_optimum(g, cfg)[0] - rep.objective) < 1e-6)
    return base, f"window load {rep.objective:g} at kappa {args.kappa} ({rep.node_count} nodes)"


def _fap_oracle(inst: FapInstance, mode: str):
    """The brute-force answer: the least spectrum, True when the fixed
    spectrum fits, or the least cost; None when the scan proves that no
    assignment exists."""
    try:
        if mode == "minimum":
            return brute_force_min_spectrum(inst)[0]
        if mode == "fixed":
            brute_force_fixed_spectrum(inst)
            return True
        return brute_force_soft_cost(inst)[0]
    except InfeasibleError:
        return None


def cmd_fap(args, text: str, deadline: float) -> Tuple[dict, str]:
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
    reports: List[SolveReport] = []
    report = {"mode": mode, "links": inst.links, "spectrum": inst.spectrum}
    try:
        if mode == "soft":
            result = solve_soft_cost(inst, reports=reports, deadline=deadline)
        elif mode == "fixed":
            result = solve_fixed_spectrum(inst, reports=reports, deadline=deadline)
        else:
            result = min_spectrum(inst, reports=reports, deadline=deadline)
    except TimeLimitError as exc:
        report.update(status="timeout", **_aggregate(reports))
        if mode != "minimum":
            return report, "time limit reached"
        # how far the spectrum search got: its bounds and its certificate
        report["lower"] = exc.lower
        if exc.assignment is None:
            return report, f"time limit reached (spectrum at least {exc.lower})"
        report.update(upper=exc.upper, frequencies=list(exc.assignment.freq))
        return report, f"time limit reached (spectrum {exc.lower} to {exc.upper})"
    except InfeasibleError as exc:
        bound = getattr(exc, "bound", math.inf)
        report.update(status="infeasible", bound=bound, **_aggregate(reports))
        if args.oracle:
            report["oracleAgrees"] = _oracle(lambda: _fap_oracle(inst, mode) is None)
        return report, "infeasible"
    if mode == "minimum":
        phi, assignment = result
        report["spectrum"] = answer = phi
        summary = f"minimum spectrum {phi}"
    else:
        assignment = result
        answer = assignment.total_cost if mode == "soft" else True
        summary = (f"total violation cost {assignment.total_cost:g}" if mode == "soft"
                   else f"feasible within spectrum {inst.spectrum}")
    assignment.verify(inst if mode != "minimum" else inst.with_spectrum(report["spectrum"]))
    report.update(status="optimal", frequencies=list(assignment.freq),
                  violatedPairs=[list(p) for p in sorted(assignment.violated_pairs)],
                  totalCost=assignment.total_cost, **_aggregate(reports))
    if args.oracle:
        def agrees() -> bool:
            expect = _fap_oracle(inst, mode)
            return expect is not None and abs(expect - answer) < 1e-6

        report["oracleAgrees"] = _oracle(agrees)
    return report, summary + f" ({report['nodes']} nodes)"


def _class_rows(g: UndirectedGraph, kappa: int, cls: str):
    d = BidirectedDigraph(g)
    if cls == "cycle":
        rows = (row_cycle(d, c) for c in enumerate_cycles(d, max(d.n, 2)))
    elif cls == "path":
        rows = (row_path(d, p, kappa) for p in enumerate_paths_k(d, kappa))
    else:
        rows = template_rows(d, kappa, tags=(cls,))
    seen = {}
    for row in rows:
        seen.setdefault(row.key, row)
    return [seen[k] for k in sorted(seen)]


def cmd_polytope(args, text: str, deadline: float) -> Tuple[dict, str]:
    g = parse_dimacs(text)
    cfg = ModelConfig(kappa=args.kappa, variant=AS)
    timeout = {"status": "timeout"}, "time limit reached"
    points = enumerate_feasible_points(g, cfg)
    if time.monotonic() >= deadline:
        return timeout
    dim = polytope_dimension(g, cfg, points)
    report = {"kappa": args.kappa, "status": "ok", "dimension": dim,
              "fullDimension": 2 * g.m + 1, "points": len(points)}
    summary = f"dimension {dim} of {2 * g.m + 1} over {len(points)} points"
    if args.classify:
        details = []
        facets = valid = 0
        for row in _class_rows(g, args.kappa, args.classify):
            if time.monotonic() >= deadline:
                return timeout
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
    return report, summary


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


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared after it:
    parsing reads it and never changes it."""
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
    started = time.perf_counter()
    try:
        text, digest = _read_instance(args.file)
        report, summary = args.func(args, text, deadline)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit({"command": args.subcommand, "digest": digest, **report}, summary, started)
    if report.get("oracleAgrees") is False:
        return 1
    return EXIT_CODES.get(report["status"], 0)


if __name__ == "__main__":
    sys.exit(main())
