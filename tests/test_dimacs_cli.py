import itertools
import json
import os
import sys
import time

import pytest

import orientcut.cli
from orientcut.cli import main
from orientcut.dimacs import parse_dimacs
from orientcut.errors import InfeasibleError, ParseError
from orientcut.fap import FapInstance, FrequencyAssignment, brute_force_min_spectrum
from orientcut.graphs import UndirectedGraph, cycle_graph

from conftest import interleaved_components, mycielski, queen_graph

K3_COL = "c tiny triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def test_parse_dimacs_basics():
    g = parse_dimacs(K3_COL)
    assert g.n == 3 and g.m == 3
    assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 2)


def test_parse_dimacs_dedup_and_blank_lines():
    g = parse_dimacs("p edge 3 4\n\ne 1 2\ne 2 1\nc dup above\ne 2 3\n")
    assert g.m == 2  # declared count deliberately not enforced


@pytest.mark.parametrize("text, line_no", [
    ("e 1 2\n", 1),
    ("p edge 2 1\np edge 2 1\n", 2),
    ("p edge two 1\n", 1),
    ("p edge 0 0\n", 1),
    ("p edge 2 1\ne 1\n", 2),
    ("p edge 2 1\ne 1 3\n", 2),
    ("p edge 2 1\ne 1 1\n", 2),
    ("p edge 2 1\nq 1 2\n", 2),
    ("p edge 2 1\ne 1 x\n", 2),
])
def test_parse_dimacs_errors_carry_line(text, line_no):
    with pytest.raises(ParseError) as info:
        parse_dimacs(text)
    assert info.value.line_no == line_no


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.col"
    p.write_text(K3_COL)
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_color(capsys, k3_file):
    code, out, err = _run(capsys, ["color", k3_file])
    assert code == 0
    rep = json.loads(out)
    assert rep["chromatic"] == 3 and rep["status"] == "optimal"
    assert len(rep["classes"]) == 3
    assert "digest" in rep and rep["command"] == "color"
    assert "chromatic 3" in err or "3" in err


@pytest.mark.parametrize("raw", [b"", b"abc", K3_COL.encode(), bytes(range(256)) * 300])
def test_report_digest_is_the_sha256_prefix(raw):
    """The digest comes from CPython's built-in SHA-256 where there is one,
    and equals hashlib's on every input, the empty one too."""
    import hashlib

    assert orientcut.cli._digest(raw) == hashlib.sha256(raw).hexdigest()[:16]


def test_cli_color_oracle(capsys, k3_file):
    code, out, _ = _run(capsys, ["color", k3_file, "--oracle"])
    assert code == 0
    assert json.loads(out)["oracleAgrees"] is True


def test_cli_output_is_byte_stable(capsys, k3_file):
    _, out1, _ = _run(capsys, ["orient", k3_file, "--kappa", "2"])
    _, out2, _ = _run(capsys, ["orient", k3_file, "--kappa", "2"])
    _, out3, _ = _run(capsys, ["orient", k3_file, "--kappa", "2", "--threads", "3"])
    assert out1 == out2 == out3


def test_cli_orient(capsys, k3_file):
    code, out, _ = _run(capsys, ["orient", k3_file, "--kappa", "2", "--oracle"])
    assert code == 0
    rep = json.loads(out)
    assert rep["z"] == 2 and rep["status"] == "optimal"
    assert rep["oracleAgrees"] is True
    assert len(rep["arcs"]) == 3


def test_cli_orient_timeout_exit(capsys, tmp_path):
    import networkx as nx

    lines = ["p edge 10 15"]
    for u, v in nx.petersen_graph().edges():
        lines.append(f"e {u + 1} {v + 1}")
    p = tmp_path / "pet.col"
    p.write_text("\n".join(lines) + "\n")
    code, out, _ = _run(capsys, ["orient", str(p), "--kappa", "3", "--time-limit", "0"])
    assert code == 3
    assert json.loads(out)["status"] == "timeout"


def test_cli_fap_minimum(capsys, tmp_path):
    doc = {"links": 3, "freqSets": [[], [], []],
           "pairs": [{"i": 0, "j": 1, "d": 1}, {"i": 0, "j": 2, "d": 1}, {"i": 1, "j": 2, "d": 1}]}
    p = tmp_path / "k3.json"
    p.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["fap", str(p), "--oracle"])
    assert code == 0
    rep = json.loads(out)
    assert rep["mode"] == "minimum" and rep["spectrum"] == 2
    assert sorted(rep["frequencies"]) == [0, 1, 2]
    assert rep["oracleAgrees"] is True


@pytest.mark.parametrize("freq_sets, pairs, lower, upper", [
    # greedy first-fit gives 5, above the clique span 3: the first probe is at 4
    ([[], [], [], []], [(0, 1, 3), (0, 2, 2), (0, 3, 1), (1, 3, 1), (2, 3, 3)], 3, 5),
    # greedy dead-ends on the menus, so the first probe is the one at the cap
    ([[1, 3], [0, 2]], [(0, 1, 2)], 2, None),
])
def test_cli_fap_minimum_timeout_reports_its_bounds(capsys, tmp_path, freq_sets, pairs,
                                                    lower, upper):
    """A spectrum search whose first probe is open at the deadline reports
    its lower bound and, when it holds a certificate, that certificate's
    frequencies and the spectrum they fit as `upper`."""
    doc = {"links": len(freq_sets), "freqSets": freq_sets,
           "pairs": [{"i": i, "j": j, "d": d} for i, j, d in pairs]}
    p = tmp_path / "open.json"
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["fap", str(p), "--time-limit", "0"])
    rep = json.loads(out)
    assert code == 3 and rep["status"] == "timeout" and rep["solves"] == 1
    assert rep["lower"] == lower and rep.get("upper") == upper
    best = brute_force_min_spectrum(FapInstance.from_dict(doc))[0]
    assert lower <= best <= (upper if upper is not None else best)
    if upper is None:
        assert "frequencies" not in rep
        assert f"spectrum at least {lower}" in err
    else:
        assert max(rep["frequencies"]) <= upper
        FrequencyAssignment(tuple(rep["frequencies"]), frozenset(), 0.0).verify(
            FapInstance.from_dict({**doc, "spectrum": upper}))
        assert f"spectrum {lower} to {upper}" in err


def test_cli_fap_fixed_infeasible(capsys, tmp_path):
    doc = {"links": 3, "freqSets": [[], [], []], "spectrum": 1,
           "pairs": [{"i": 0, "j": 1, "d": 1}, {"i": 0, "j": 2, "d": 1}, {"i": 1, "j": 2, "d": 1}]}
    p = tmp_path / "hard.json"
    p.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["fap", str(p)])
    assert code == 2
    assert json.loads(out)["status"] == "infeasible"


def test_cli_fap_soft(capsys, tmp_path):
    doc = {"links": 3, "freqSets": [[], [], []], "spectrum": 1,
           "pairs": [{"i": 0, "j": 1, "d": 1, "c": 1.0},
                     {"i": 0, "j": 2, "d": 1, "c": 1.0},
                     {"i": 1, "j": 2, "d": 1, "c": 1.0}]}
    p = tmp_path / "soft.json"
    p.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["fap", str(p), "--oracle"])
    assert code == 0
    rep = json.loads(out)
    assert rep["mode"] == "soft" and rep["totalCost"] == 1
    assert len(rep["violatedPairs"]) == 1
    assert rep["oracleAgrees"] is True


def test_cli_fap_soft_oracle_refuses_a_large_spectrum(capsys, tmp_path):
    doc = {"links": 3, "freqSets": [[], [], []], "spectrum": 2000,
           "pairs": [{"i": 0, "j": 1, "d": 1, "c": 2.0}, {"i": 1, "j": 2, "d": 1}]}
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc))
    started = time.monotonic()
    code, out, err = _run(capsys, ["fap", str(p), "--oracle", "--time-limit", "2"])
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "optimal" and rep["oracleAgrees"] is None
    assert "oracle refused" in err
    assert time.monotonic() - started < 10


PATH11_COL = "p edge 11 10\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 11))


@pytest.mark.parametrize("argv, name, text, code, status", [
    (["color"], "path11.col", PATH11_COL, 0, "optimal"),
    (["orient", "--kappa", "2"], "path11.col", PATH11_COL, 0, "optimal"),
    (["fap"], "fap3.json", json.dumps({"links": 3, "freqSets": [[0], [0], []],
                                       "pairs": [{"i": 0, "j": 1, "d": 1}]}), 2, "infeasible"),
])
def test_cli_oracle_refusal_keeps_the_report(capsys, tmp_path, argv, name, text, code, status):
    """Past the scan's size cap the oracle gives no verdict; the solved
    report stands and the exit code is the one without `--oracle`."""
    p = tmp_path / name
    p.write_text(text)
    plain, out, _ = _run(capsys, argv + [str(p)])
    assert plain == code
    got, out, err = _run(capsys, argv + [str(p), "--oracle"])
    rep = json.loads(out)
    assert got == code and rep["status"] == status and rep["oracleAgrees"] is None
    assert "oracle refused" in err


def test_cli_disagreeing_oracle_exits_1(capsys, monkeypatch, k3_file):
    monkeypatch.setattr(orientcut.cli, "brute_force_chromatic", lambda g: 4)
    code, out, _ = _run(capsys, ["color", k3_file, "--oracle"])
    rep = json.loads(out)
    assert code == 1 and rep["chromatic"] == 3 and rep["oracleAgrees"] is False


@pytest.mark.parametrize("scan, doc", [
    ("brute_force_min_spectrum", {"links": 2, "freqSets": [[], []],
                                  "pairs": [{"i": 0, "j": 1, "d": 1}]}),
    ("brute_force_soft_cost", {"links": 2, "freqSets": [[], []], "spectrum": 1,
                               "pairs": [{"i": 0, "j": 1, "d": 1, "c": 1.0}]}),
])
def test_cli_fap_oracle_that_proves_infeasible_disagrees(capsys, monkeypatch, tmp_path,
                                                          scan, doc):
    """A solved instance that the scan proves infeasible is a disagreement:
    the report stands with `oracleAgrees` false and the command exits 1."""
    def infeasible(inst):
        raise InfeasibleError("no assignment")

    monkeypatch.setattr(orientcut.cli, scan, infeasible)
    p = tmp_path / "fap.json"
    p.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["fap", str(p), "--oracle"])
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "optimal" and rep["oracleAgrees"] is False


def test_cli_fap_disputed_infeasible_verdict_exits_1(capsys, monkeypatch, tmp_path):
    """An oracle that disagrees exits 1 whatever the verdict, an infeasible
    one included, so exit code 2 always means an undisputed infeasibility."""
    monkeypatch.setattr(orientcut.cli, "brute_force_min_spectrum", lambda inst: (1, (0, 1)))
    p = tmp_path / "clash.json"
    p.write_text(json.dumps({"links": 2, "freqSets": [[0], [0]],
                             "pairs": [{"i": 0, "j": 1, "d": 1}]}))
    code, out, _ = _run(capsys, ["fap", str(p), "--oracle"])
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "infeasible" and rep["oracleAgrees"] is False


def test_cli_fap_soft_without_spectrum_exits_1(capsys, tmp_path):
    p = tmp_path / "soft.json"
    p.write_text(json.dumps({"links": 2, "freqSets": [[], []],
                             "pairs": [{"i": 0, "j": 1, "d": 1, "c": 1}]}))
    code, out, err = _run(capsys, ["fap", str(p)])
    assert code == 1 and not out
    assert err.startswith("error:") and "spectrum" in err


@pytest.mark.parametrize("doc, code, status", [
    ({"links": 2, "freqSets": [[], []], "pairs": []}, 0, "optimal"),
    ({"links": 2, "freqSets": [[], []], "pairs": [{"i": 0, "j": 1, "d": 1}]}, 2, "infeasible"),
    ({"links": 2, "freqSets": [[], []], "pairs": [{"i": 0, "j": 1, "d": 1, "c": 2}]},
     0, "optimal"),
    ({"links": 1, "freqSets": [[1]], "pairs": []}, 2, "infeasible"),
])
def test_cli_fap_at_spectrum_zero(capsys, tmp_path, doc, code, status):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({**doc, "spectrum": 0}))
    got, out, _ = _run(capsys, ["fap", str(p), "--oracle"])
    rep = json.loads(out)
    assert got == code and rep["status"] == status and rep["oracleAgrees"] is True
    if status == "optimal":
        assert set(rep["frequencies"]) == {0}


@pytest.mark.parametrize("cost", ["NaN", "Infinity", "-Infinity", "true"])
def test_cli_fap_rejects_non_finite_costs(capsys, tmp_path, cost):
    p = tmp_path / "soft.json"
    p.write_text('{"links": 2, "freqSets": [[], []], "spectrum": 1, '
                 '"pairs": [{"i": 0, "j": 1, "d": 1, "c": %s}]}' % cost)
    code, out, err = _run(capsys, ["fap", str(p)])
    assert code == 1 and not out
    assert err.startswith("error:") and "cost" in err


@pytest.mark.parametrize("freq_sets", ["[[[1]], []]", "[[{}], []]"])
def test_cli_fap_rejects_non_integer_frequencies(capsys, tmp_path, freq_sets):
    p = tmp_path / "sets.json"
    p.write_text('{"links": 2, "freqSets": %s, '
                 '"pairs": [{"i": 0, "j": 1, "d": 1}]}' % freq_sets)
    code, out, err = _run(capsys, ["fap", str(p)])
    assert code == 1 and not out
    assert err.startswith("error:") and "freqSets" in err


def test_cli_polytope_plain(capsys, k3_file):
    code, out, _ = _run(capsys, ["polytope", k3_file, "--kappa", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == rep["fullDimension"] == 7
    assert rep["points"] > 0


def test_cli_polytope_classify(capsys, k3_file):
    code, out, _ = _run(capsys, ["polytope", k3_file, "--kappa", "2", "--classify", "cycle-z"])
    assert code == 0
    rep = json.loads(out)
    assert rep["class"] == "cycle-z"
    assert rep["validCount"] == len(rep["rows"]) == 2
    assert rep["facetCount"] == 2
    for row in rep["rows"]:
        assert row["valid"] is True and row["isFacet"] is True


def test_cli_polytope_classify_cycle_on_one_vertex(capsys, tmp_path):
    """A graph too small for any cycle has no cycle rows, not an error."""
    path = tmp_path / "k1.col"
    path.write_text("p edge 1 0\n")
    code, out, _ = _run(capsys, ["polytope", str(path), "--kappa", "1", "--classify", "cycle"])
    assert code == 0
    rep = json.loads(out)
    assert rep["rows"] == [] and rep["validCount"] == rep["facetCount"] == 0


def test_cli_polytope_refuses_too_many_points(capsys, k3_file):
    """K3 at kappa 10^6 has 25,000,025 lab points: refused before any is built."""
    code, out, err = _run(capsys, ["polytope", k3_file, "--kappa", "1000000"])
    assert code == 1 and not out
    assert err == "error: point enumeration capped at 1048576 points, got 25000025\n"


def test_cli_polytope_one_rank_per_row(capsys, k3_file, monkeypatch):
    from orientcut import polytope

    calls = []
    rank = polytope.affine_dimension

    def spy(points):
        calls.append(points)
        return rank(points)

    monkeypatch.setattr(polytope, "affine_dimension", spy)
    code, out, _ = _run(capsys, ["polytope", k3_file, "--kappa", "2", "--classify", "cycle"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and len(calls) == 1 + len(rows)


def test_cli_polytope_timeout_exit(capsys, k3_file, monkeypatch):
    import time

    from orientcut import cli

    def check_timeout(argv):
        code, out, _ = _run(capsys, ["polytope", k3_file, "--kappa", "2", *argv])
        assert code == 3
        rep = json.loads(out)
        assert rep == {"command": "polytope", "digest": rep["digest"], "status": "timeout"}

    def no_enumeration(*args):
        raise AssertionError("points enumerated past the deadline")

    # a spent deadline stops the command before the enumeration
    with monkeypatch.context() as patch:
        patch.setattr(cli, "enumerate_feasible_points", no_enumeration)
        check_timeout(["--time-limit", "0"])
        check_timeout(["--time-limit", "0", "--classify", "path"])
    # the dimension runs past the limit: the check before the first row stops it
    real = cli.polytope_dimension

    def slow_dimension(*args):
        time.sleep(0.3)
        return real(*args)

    monkeypatch.setattr(cli, "polytope_dimension", slow_dimension)
    check_timeout(["--time-limit", "0.2", "--classify", "path"])


@pytest.mark.parametrize("command, text", [
    # two triangles: one window solve per component
    ("color", "p edge 6 6\ne 1 2\ne 1 3\ne 2 3\ne 4 5\ne 4 6\ne 5 6\n"),
    # minimum spectrum 4 after two probes
    ("fap", json.dumps({"links": 4, "freqSets": [[]] * 4, "pairs": [
        {"i": 0, "j": 1, "d": 3}, {"i": 0, "j": 2, "d": 2}, {"i": 0, "j": 3, "d": 1},
        {"i": 1, "j": 3, "d": 1}, {"i": 2, "j": 3, "d": 3}]})),
], ids=["color", "fap"])
def test_cli_one_deadline_per_command(capsys, tmp_path, monkeypatch, command, text):
    import time

    from orientcut import fap, solver

    deadlines = []
    real = solver.solve_model

    def spy(*args, deadline=None, **kwargs):
        deadlines.append(deadline)
        return real(*args, deadline=deadline, **kwargs)

    # both bindings: `fap` imports `solve_model` by name
    monkeypatch.setattr(solver, "solve_model", spy)
    monkeypatch.setattr(fap, "solve_model", spy)
    path = tmp_path / "instance"
    path.write_text(text)
    before = time.monotonic()
    code, out, _ = _run(capsys, [command, str(path), "--time-limit", "50"])
    after = time.monotonic()
    rep = json.loads(out)
    assert code == 0 and rep["solves"] == len(deadlines) >= 2
    assert rep.get("mode", "minimum") == "minimum"
    assert len(set(deadlines)) == 1
    assert before + 50 <= deadlines[0] <= after + 50


def _write_col(path, g):
    path.write_text(f"p edge {g.n} {g.m}\n" + "".join(f"e {i + 1} {j + 1}\n" for i, j in g.edges))
    return str(path)


def test_cli_color_solves_queen4(capsys, tmp_path):
    """DSATUR's 5 colours meet the 5-clique, so one window solve closes queen4."""
    path = _write_col(tmp_path / "queen4.col", queen_graph(4))
    code, out, _ = _run(capsys, ["color", path, "--time-limit", "5"])
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "optimal" and rep["chromatic"] == 5


def test_cli_time_limit_bounds_the_command(capsys, tmp_path):
    """myciel4 is not solved in a second; the command must stop soon after,
    with the counters of the window solves it ran, the stopped one included."""
    path = _write_col(tmp_path / "myciel4.col", mycielski(mycielski(cycle_graph(5))))
    start = time.monotonic()
    code, out, _ = _run(capsys, ["color", path, "--time-limit", "1"])
    rep = json.loads(out)
    assert code == 3 and rep["status"] == "timeout"
    assert time.monotonic() - start < 4.0
    assert rep["solves"] >= 1
    assert {"nodes", "pruned", "cutCounts", "boundHistory"} <= rep.keys()


def _proper_classes(g, classes):
    """Whether `classes` partitions the vertices of g into independent sets."""
    layer = {v: k for k, members in enumerate(classes) for v in members}
    return sorted(layer) == list(range(g.n)) == sorted(v for c in classes for v in c) \
        and all(layer[i] != layer[j] for i, j in g.edges)


@pytest.mark.parametrize("name, lower", [("queen6", 6), ("queen6-k7", 7)])
def test_cli_color_timeout_reports_its_bounds(capsys, tmp_path, name, lower):
    """queen6's kappa 8 window is not settled in a second. The timeout report
    carries the largest greedy clique as `lower` and DSATUR's 9-colouring as
    `classes`, with its class count as `upper`. Beside a disjoint K7, whose
    vertices all have lower degree than queen6's, `lower` is the K7 and the
    colouring joins each component's best."""
    g = queen_graph(6)
    if name == "queen6-k7":
        g = UndirectedGraph(43, list(g.edges) + [
            (36 + i, 36 + j) for i, j in itertools.combinations(range(7), 2)])
    path = _write_col(tmp_path / f"{name}.col", g)
    code, out, err = _run(capsys, ["color", path, "--time-limit", "1"])
    rep = json.loads(out)
    assert code == 3 and rep["status"] == "timeout"
    assert (rep["lower"], rep["upper"]) == (lower, 9)
    assert len(rep["classes"]) == 9 and _proper_classes(g, rep["classes"])
    assert f"{lower} to 9 colours" in err


@pytest.mark.parametrize("extra, expect", [([], 0), (["--time-limit", "0"], 3)])
def test_cli_color_on_interleaved_components(capsys, tmp_path, extra, expect):
    g = interleaved_components()
    path = _write_col(tmp_path / "interleaved.col", g)
    code, out, _ = _run(capsys, ["color", path, *extra])
    rep = json.loads(out)
    assert code == expect and _proper_classes(g, rep["classes"])
    assert rep.get("chromatic") == (3 if expect == 0 else None)


@pytest.mark.parametrize("argv", [["color"], ["orient", "--kappa", "2"]])
def test_cli_solver_error_exits_1(capsys, tmp_path, monkeypatch, argv):
    """A simplex fault ends the command with one error line, exit 1 and no report."""
    from orientcut.errors import SolverError
    from orientcut.lp import LinearProgram

    def fault(self, *args, **kwargs):
        raise SolverError("row residual 1.000e-03 exceeds tolerance")

    monkeypatch.setattr(LinearProgram, "solve", fault)
    path = _write_col(tmp_path / "c5.col", cycle_graph(5))  # C5 needs an LP at kappa 2
    code, out, err = _run(capsys, [argv[0], path, *argv[1:]])
    assert code == 1 and not out
    assert err == "error: row residual 1.000e-03 exceeds tolerance\n"


def test_cli_error_exits(capsys, tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 5\n")
    code, _, err = _run(capsys, ["color", str(bad)])
    assert code == 1 and "line 2" in err

    code, _, err = _run(capsys, ["color", str(tmp_path / "missing.col")])
    assert code == 1 and err

    code, _, err = _run(capsys, ["orient", str(bad)])  # --kappa required
    assert code == 1

    code, _, err = _run(capsys, ["unknown-command"])
    assert code == 1

    good = tmp_path / "k3.col"
    good.write_text(K3_COL)
    code, _, err = _run(capsys, ["orient", str(good), "--kappa", "2", "--threads", "0"])
    assert code == 1 and "threads" in err

    for limit in ("nan", "-1"):
        code, out, err = _run(capsys, ["orient", str(good), "--kappa", "2",
                                       "--time-limit", limit])
        assert code == 1 and not out and "time-limit" in err, limit


@pytest.mark.parametrize("argv", [["color"], ["orient", "--kappa", "2"],
                                  ["polytope", "--kappa", "2"]])
def test_cli_rejects_non_utf8_input(capsys, tmp_path, argv):
    p = tmp_path / "latin1.col"
    p.write_bytes(b"c caf\xe9\n" + K3_COL.encode())
    code, out, err = _run(capsys, [argv[0], str(p), *argv[1:]])
    assert code == 1 and not out
    assert err.startswith("error:") and "UTF-8" in err


def test_cli_final_recheck_rejects_bad_answers(capsys, k3_file, monkeypatch, tmp_path):
    import dataclasses

    from orientcut import cli, fap, solver
    from orientcut.graphs import order_arcs
    from orientcut.model import ModelPoint

    real = cli.solve_ao

    def window_too_small(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, best_point=ModelPoint(rep.best_point.w, 1.0))

    monkeypatch.setattr(cli, "solve_ao", window_too_small)
    code, out, err = _run(capsys, ["orient", k3_file, "--kappa", "2"])
    assert code == 1 and not out
    assert err.startswith("error:") and "recheck" in err

    def cyclic(g, **kwargs):
        return frozenset(g.arc(i, j) if (j - i) % 3 == 1 else g.arc(j, i)
                         for i, j in g.edges), 2

    def too_long(g, **kwargs):  # acyclic, but its longest path has 2 arcs
        return order_arcs(g, range(g.n)), 1

    def level_unused(g, **kwargs):  # no path reaches label 3
        return order_arcs(g, range(g.n)), 3

    def edge_unoriented(g, **kwargs):  # vertices 0 and 2 share label 0
        return frozenset({g.arc(0, 1)}), 1

    for wrong in (cyclic, too_long, level_unused, edge_unoriented):
        monkeypatch.setattr(solver, "min_diameter_orientation", wrong)
        code, out, err = _run(capsys, ["color", k3_file])
        assert code == 1 and not out
        assert err.startswith("error:") and "recheck" in err

    # every fap mode rechecks its frequencies; all zero, they leave a pair unseparated
    monkeypatch.setattr(fap, "least_labels", lambda g, *args: [0] * g.n)  # fixed
    monkeypatch.setattr(fap, "longest_path_labels", lambda g, arcs: [0] * g.n)  # soft
    monkeypatch.setattr(fap, "greedy_assignment", lambda inst: [0] * inst.links)  # minimum
    triangle = [{"i": i, "j": j, "d": 1} for i, j in ((0, 1), (0, 2), (1, 2))]
    for mode, doc in (("fixed", {"spectrum": 2, "pairs": triangle}),
                      ("soft", {"spectrum": 1, "pairs": [{**p, "c": 1.0} for p in triangle]}),
                      ("minimum", {"pairs": triangle})):
        p = tmp_path / f"{mode}.json"
        p.write_text(json.dumps({"links": 3, "freqSets": [[], [], []], **doc}))
        code, out, err = _run(capsys, ["fap", str(p)])
        assert code == 1 and not out, mode
        assert err.startswith("error:") and err.count("\n") == 1, mode
        assert "separated by 0 < 1" in err, mode


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("limit, expect", [("10", 0), ("0", 3)])
def test_cli_closed_stdout_ends_quietly(capsys, monkeypatch, tmp_path, limit, expect):
    """The command returns its own exit code with no traceback, and stdout's
    descriptor now points at os.devnull, so the flush at exit stays quiet."""
    path = _write_col(tmp_path / "myciel3.col", mycielski(cycle_graph(5)))
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fd))
        code = main(["color", path, "--time-limit", limit])
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    monkeypatch.undo()
    assert code == expect
    assert (tmp_path / "stdout").read_text() == ""
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
