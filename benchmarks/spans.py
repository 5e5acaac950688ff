"""Layer spans and counters for the traced benchmark run.

`Tracer.install()` replaces public functions of the `orientcut` modules by
timing wrappers, at the name each caller binds (for example the solver's own
`separate_templates`, not the one in `orientcut.separation`), and
`uninstall()` puts every original back. Spans stay in memory; `per_layer()`
turns them into per-layer totals and `dump()` writes them out.

Self time of a layer is its span time minus the time of the spans nested
directly inside it. Hot leaf calls (`LinearProgram.__init__` and `add_row`)
are timed and counted but keep no span record of their own.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import orientcut.cli
import orientcut.fap
import orientcut.lp
import orientcut.polytope
import orientcut.solver

TEMPLATE_TAGS = ("cycle-z", "path-km1", "path-km2", "cycle-arcs", "adjacent-paths")
CUT_TAGS = ("cycle", "path") + TEMPLATE_TAGS

_LP = orientcut.lp.LinearProgram

# (owner, attribute, layer, keeps a span record)
BINDINGS = (
    (_LP, "__init__", "lp.build", False),
    (_LP, "add_row", "lp.build", False),
    (_LP, "solve", "lp.solve", True),
    (orientcut.solver, "solve_model", "solver", True),
    (orientcut.fap, "solve_model", "solver", True),
    (orientcut.solver, "separate_cycles", "separation.cycle", True),
    (orientcut.solver, "separate_paths", "separation.path", True),
    (orientcut.solver, "separate_templates", "separation.template", True),
    (orientcut.solver, "find_directed_cycle", "graphs.cycle_check", True),
    (orientcut.solver, "max_path_load", "graphs.load_check", True),
    (orientcut.solver, "check_integral_feasible", "model.integral_check", True),
    (orientcut.cli, "check_integral_feasible", "model.integral_check", True),
    (orientcut.cli, "min_spectrum", "fap", True),
    (orientcut.cli, "solve_fixed_spectrum", "fap", True),
    (orientcut.cli, "solve_soft_cost", "fap", True),
    (orientcut.cli, "enumerate_feasible_points", "polytope.enum", True),
    (orientcut.cli, "polytope_dimension", "polytope.dimension", True),
    (orientcut.cli, "classify_face", "polytope.classify", True),
    (orientcut.polytope, "affine_dimension", "lp.rank", True),
)


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        # (request, layer, start, end, parent span index or -1)
        self.spans: List[Tuple[str, str, float, float, int]] = []
        self.mismatches: List[str] = []
        self._stack: List[list] = []  # [child seconds, span index]
        self._saved: List[Tuple[object, str, object]] = []
        self._request = ""

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for owner, attr, layer, keep in BINDINGS:
            original = vars(owner)[attr]
            hook = hooks.get((owner, attr))
            setattr(owner, attr, self._wrap(original, layer, keep, hook,
                                            snapshot=attr == "solve_model"))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, original: Callable, layer: str, keep: bool,
              hook: Optional[Callable], snapshot: bool) -> Callable:
        stack, spans = self._stack, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            before = dict(self.counts) if snapshot else None
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[layer] += 1
                total[layer] += elapsed
                self_time[layer] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if keep:
                    spans[index] = (self._request, layer, start, end,
                                    parent[1] if parent else -1)
            if hook:
                hook(args, result, before)
            return result

        return traced

    @contextlib.contextmanager
    def request(self, name: str):
        """The root `cli` span of one command run."""
        self._request = name
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.calls["cli"] += 1
            self.total["cli"] += end - start
            self.self_time["cli"] += end - start - frame[0]
            self.spans[index] = (name, "cli", start, end, -1)

    # ------------------------------------------------------------ counters

    def _hooks(self) -> Dict[Tuple[str, object], Callable]:
        counts = self.counts

        def lp_build(*_):
            counts["lp.builds"] += 1

        def lp_solve(args, sol, _):
            counts["lp.pivots"] += sol.iterations
            counts["lp.rows"] += len(args[0].rows)

        def rows(key):
            def hook(_args, result, _):
                counts[key] += len(result)
            return hook

        def cycle_check(_args, cycle, _):
            counts["graphs.cycle_check.hits"] += cycle is not None

        def load_check(*_):
            counts["graphs.load_check.calls"] += 1

        def solve_model(via_fap):
            def hook(_args, rep, before):
                if via_fap:
                    counts["fap.probes"] += 1
                counts["solver.nodes"] += rep.node_count
                counts["solver.pruned"] += rep.pruned_count
                for tag, n in rep.cut_counts.items():
                    counts[f"separation.cuts.{tag}"] += n
                self._check_solve(rep, before)
            return hook

        solver = orientcut.solver
        return {
            (_LP, "__init__"): lp_build,
            (_LP, "solve"): lp_solve,
            (solver, "solve_model"): solve_model(False),
            (orientcut.fap, "solve_model"): solve_model(True),
            (solver, "separate_cycles"): rows("separation.cycle.rows"),
            (solver, "separate_paths"): rows("separation.path.rows"),
            (solver, "separate_templates"): rows("separation.template.rows"),
            (solver, "find_directed_cycle"): cycle_check,
            (solver, "max_path_load"): load_check,
            (orientcut.cli, "enumerate_feasible_points"): rows("polytope.points"),
        }

    def snapshot(self) -> Dict[str, float]:
        snap = {f"calls.{k}": v for k, v in self.calls.items()}
        snap.update(self.counts)
        return snap

    def cross_check(self, name: str, command: str, report: dict,
                    before: Dict[str, float]) -> None:
        """Traced counts of one command run against the fields of its report."""
        now = self.snapshot()

        def delta(key):
            return now.get(key, 0) - before.get(key, 0)

        expect = {}
        if command == "polytope":
            rows = len(report.get("rows", []))
            expect = {"polytope.points": report["points"], "calls.polytope.classify": rows}
            if delta("calls.lp.rank") < 1 + rows:
                self.mismatches.append(f"{name}: {delta('calls.lp.rank'):g} rank calls "
                                       f"for {rows} classified rows")
        else:
            expect = {"calls.solver": report.get("solves", 1), "solver.nodes": report["nodes"]}
            expect.update({f"separation.cuts.{tag}": report["cutCounts"].get(tag, 0)
                           for tag in CUT_TAGS})
            if command == "fap":
                expect["fap.probes"] = report["solves"]
        for key, value in expect.items():
            if delta(key) != value:
                self.mismatches.append(f"{name}: traced {key} {delta(key):g}, "
                                       f"reported {value}")

    def _delta(self, before: Dict[str, float], key: str) -> float:
        return self.counts.get(key, 0) - before.get(key, 0)

    def _check_solve(self, rep, before: Dict[str, float]) -> None:
        """Wrapper counts inside one `solve_model` call against its report."""
        builds = self._delta(before, "lp.builds")
        pivots = self._delta(before, "lp.pivots")
        if pivots < rep.lp_iterations or (builds == rep.node_count and
                                          pivots != rep.lp_iterations):
            self.mismatches.append(f"{self._request}: traced pivots {pivots:g} vs "
                                   f"reported {rep.lp_iterations} over {builds} LP builds "
                                   f"for {rep.node_count} nodes")
        cuts = rep.cut_counts
        template = self._delta(before, "separation.template.rows")
        bounds = {
            "template": (template, sum(cuts.get(t, 0) for t in TEMPLATE_TAGS)),
            "cycle": (self._delta(before, "separation.cycle.rows")
                      + self._delta(before, "graphs.cycle_check.hits"), cuts.get("cycle", 0)),
            "path": (self._delta(before, "separation.path.rows")
                     + self._delta(before, "graphs.load_check.calls"), cuts.get("path", 0)),
        }
        for family, (traced, reported) in bounds.items():
            if traced < reported:
                self.mismatches.append(f"{self._request}: {family} rows traced {traced:g} "
                                       f"< {reported} cuts reported")

    # ------------------------------------------------------------ results

    def per_layer(self, wall: float, overhead: float) -> Dict[str, float]:
        """Layer totals of the traced pass; shares are of its instance time `wall`."""
        c, t, s, n = self.counts, self.total, self.self_time, self.calls
        solves = n["lp.solve"]
        template_rows = c["separation.template.rows"]
        kept = sum(c[f"separation.cuts.{tag}"] for tag in TEMPLATE_TAGS)
        out = {
            "lp.solves": solves,
            "lp.solve_s": t["lp.solve"],
            "lp.pivots": c["lp.pivots"],
            "lp.pivots_per_solve": c["lp.pivots"] / solves if solves else 0.0,
            "lp.rows_per_solve": c["lp.rows"] / solves if solves else 0.0,
            "lp.build_s": t["lp.build"],
            "lp.builds": c["lp.builds"],
            "lp.share": (t["lp.solve"] + t["lp.build"]) / wall,
        }
        for fam in ("cycle", "path", "template"):
            out[f"separation.{fam}.s"] = t[f"separation.{fam}"]
            out[f"separation.{fam}.calls"] = n[f"separation.{fam}"]
            out[f"separation.{fam}.rows"] = c[f"separation.{fam}.rows"]
        for tag in CUT_TAGS:
            out[f"separation.cuts.{tag}"] = c[f"separation.cuts.{tag}"]
        out["separation.template.kept_ratio"] = kept / template_rows if template_rows else 0.0
        out["separation.template.share"] = t["separation.template"] / wall
        for layer in ("graphs.cycle_check", "graphs.load_check", "model.integral_check"):
            out[f"{layer}.s"] = t[layer]
            out[f"{layer}.calls"] = n[layer]
        out.update({
            "solver.solves": n["solver"],
            "solver.nodes": c["solver.nodes"],
            "solver.pruned": c["solver.pruned"],
            "solver.cut_rounds": n["separation.cycle"],
            "solver.self_s": s["solver"],
            "solver.discarded_nodes": c["lp.builds"] - c["solver.nodes"],
            "fap.probes": c["fap.probes"],
            "fap.self_s": s["fap"],
            "polytope.enum_s": t["polytope.enum"],
            "polytope.points": c["polytope.points"],
            "polytope.classify_calls": n["polytope.classify"],
            "polytope.self_s": sum(s[k] for k in ("polytope.enum", "polytope.dimension",
                                                  "polytope.classify")),
            "lp.rank.s": t["lp.rank"],
            "lp.rank.calls": n["lp.rank"],
            "lp.rank.share": t["lp.rank"] / wall,
            "cli.self_s": s["cli"],
            "trace.overhead_s": overhead,
        })
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({**extra, "spans": [
                {"request": r, "layer": layer, "start": a, "end": b, "parent": p}
                for r, layer, a, b, p in self.spans]}, fh)


def run_traced(tracer: Tracer, inst, run: Callable):
    """Run one instance under `tracer` and cross-check its report."""
    before = tracer.snapshot()
    with tracer.request(inst.name):
        outcome = run()
    if outcome.report is not None:
        tracer.cross_check(inst.name, inst.command, outcome.report, before)
    return outcome


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_per_solve"):
        return "count/solve"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


UNITS = {name: _unit(name) for name in Tracer().per_layer(1.0, 1.0)}
