"""Tests of the benchmark itself: seeded inputs, answer checks, tracing hygiene.

Run from the repository root with `python3 -m pytest benchmarks`.
"""

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import orientcut  # noqa: E402
import orientcut.cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _pick(workload, seed, test):
    return next(i for i in workloads.generate(workload, seed) if test(i))


@pytest.fixture(scope="module")
def alarm():
    return run._Alarm()


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_writes_the_same_files(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    workloads.write_instances(workloads.generate(workload, 7), str(a))
    workloads.write_instances(workloads.generate(workload, 7), str(b))
    names = sorted(os.listdir(a))
    assert len(names) == workloads.COUNTS[workload]
    assert names == sorted(os.listdir(b))
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    texts = [i.text for i in workloads.generate(workload, 7)]
    assert [i.text for i in workloads.generate(workload, 8)] != texts


def _corrupt(report: dict) -> dict:
    bad = json.loads(json.dumps(report))
    if "chromatic" in bad:
        bad["chromatic"] += 1
        bad["classes"].append([])
    elif "z" in bad:
        bad["z"] -= 1
    elif bad.get("command") == "fap":
        bad["spectrum"] = bad["spectrum"] - 1 if bad["mode"] == "minimum" else bad["spectrum"]
        bad["totalCost"] = bad.get("totalCost", 0) + 1
    elif bad.get("rows"):
        bad["rows"][0]["isFacet"] = not bad["rows"][0]["isFacet"]
    else:
        bad["dimension"] -= 1
    return bad


CASES = [
    ("color-sparse", lambda i: i.meta.get("base") == "gp7-2"),
    ("color-sparse", lambda i: i.meta.get("base") == "planted"),
    ("window-dense", lambda i: i.meta.get("base") == "gnp"),
    ("window-dense", lambda i: i.meta.get("base") == "petersen"),
    ("fap-mix", lambda i: i.meta["mode"] == "soft"),
    ("fap-mix", lambda i: i.meta["mode"] == "sets"),
    ("polytope-lab", lambda i: i.meta["cls"] == "path"),
    ("polytope-lab", lambda i: i.meta["cls"] == ""),
]


@pytest.mark.parametrize("workload,test", CASES)
def test_true_answer_passes_and_planted_wrong_answer_fails(workload, test, tmp_path, alarm):
    inst = _pick(workload, 5, test)
    workloads.write_instances([inst], str(tmp_path))
    out = run.run_instance(inst, str(tmp_path), orientcut.cli.main, alarm)
    assert out.error is None
    assert checks.check(inst, out.exit_code, out.report) is None
    assert checks.check(inst, out.exit_code, _corrupt(out.report)) is not None


def test_wrong_and_capped_instances_count_as_failed(tmp_path, alarm):
    batch = [i for i in workloads.generate("color-sparse", 2)
             if i.meta["base"] in ("gp7-2", "gp7-3")][:3]
    workloads.write_instances(batch, str(tmp_path))

    def lying_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = orientcut.cli.main(argv)
        report = json.loads(buf.getvalue())
        if argv[1].endswith(batch[1].filename):
            report = _corrupt(report)
        print(json.dumps(report))
        return code

    outs = run.run_pass(batch, str(tmp_path), lying_main, alarm, time.perf_counter() + 60)
    assert run.failures(batch, [outs]).keys() == {batch[1].name}

    def stuck_main(argv):
        time.sleep(5)

    capped = run.run_instance(batch[0], str(tmp_path), stuck_main, alarm, cap=0.2)
    assert capped.error == "capped at 0.2 s" and capped.seconds < 2
    assert run.failures(batch[:1], [[capped]]) == {batch[0].name: "capped at 0.2 s"}


def _namespaces():
    owners = [orientcut, orientcut.cli, orientcut.fap, orientcut.graphs, orientcut.lp,
              orientcut.model, orientcut.polytope, orientcut.separation, orientcut.solver,
              orientcut.lp.LinearProgram]
    return {(repr(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_restores_namespaces_and_matches_reports(tmp_path, alarm):
    batch = [_pick("window-dense", 4, lambda i: i.meta.get("base") == "petersen"),
             _pick("fap-mix", 4, lambda i: i.meta["mode"] == "soft"),
             _pick("polytope-lab", 4, lambda i: i.meta["cls"] == "cycle")]
    workloads.write_instances(batch, str(tmp_path))
    plain = [run.run_instance(i, str(tmp_path), orientcut.cli.main, alarm) for i in batch]
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert orientcut.solver.separate_templates is not before[
            (repr(orientcut.solver), "separate_templates")]
        traced = [spans.run_traced(tracer, i, lambda i=i: run.run_instance(
            i, str(tmp_path), orientcut.cli.main, alarm)) for i in batch]
        stuck = spans.run_traced(tracer, batch[0], lambda: run.run_instance(
            batch[0], str(tmp_path), orientcut.cli.main, alarm, cap=0.01))
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert stuck.error is not None and tracer._stack == []
    assert [t.stdout for t in traced] == [p.stdout for p in plain]
    assert tracer.mismatches == []
    layers = tracer.per_layer(1.0, 0.5)
    assert layers["lp.solves"] > 0 and layers["separation.template.calls"] > 0
    assert layers["fap.probes"] > 0 and layers["lp.rank.calls"] > 0
    assert set(layers) == set(spans.UNITS)


def test_wrapper_on_the_wrong_binding_fails_the_cross_check(tmp_path, alarm, monkeypatch):
    inst = _pick("window-dense", 4, lambda i: i.meta.get("base") == "petersen")
    workloads.write_instances([inst], str(tmp_path))
    wrong = [(orientcut.separation if attr == "separate_templates" else owner,
              attr, layer, keep) for owner, attr, layer, keep in spans.BINDINGS]
    monkeypatch.setattr(spans, "BINDINGS", tuple(wrong))
    tracer = spans.Tracer()
    tracer.install()
    try:
        spans.run_traced(tracer, inst, lambda: run.run_instance(
            inst, str(tmp_path), orientcut.cli.main, alarm))
    finally:
        tracer.uninstall()
    assert any("template" in m for m in tracer.mismatches)


@pytest.mark.parametrize("base,kappa", sorted(workloads.Z_STAR))
def test_recorded_window_optima_match_enumeration(base, kappa):
    n, edges = (10, workloads.generalized_petersen(5, 2)) if base == "petersen" \
        else workloads._myciel3()
    assert checks.min_window_load(n, edges, kappa) == workloads.Z_STAR[(base, kappa)]
