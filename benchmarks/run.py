#!/usr/bin/env python3
"""Seeded benchmark of the `orientcut` commands, run in-process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload color-sparse --seed 1 --seconds 25 --trace 0

The run generates the workload's instance batch from the seed (see
`workloads.py`), writes it under `.bench_work/`, and feeds it to
`orientcut.cli.main([...])` in a closed loop: one client, one instance at a
time, `--threads 1`. It repeats whole passes over the batch while another
pass fits in `--seconds`; the first pass always runs. Every answer is checked
against an independent reference after timing (see `checks.py`). An
instance that runs past `INSTANCE_CAP_S` is stopped by an alarm and counts as
failed, and so does every instance not started once `RUN_BUDGET_S` is spent.

Host speed on a shared machine drifts by tens of percent within minutes.
So before each instance the run times two short calibration kernels
(rational arithmetic and small numpy updates) and divides the instance's
time by the local slowdown: the local median of the kernels' mean time over
their reference time. Times below are in these reference seconds; the raw
wall time is printed too.

With `--trace 0` the last stdout line reports the end-to-end metrics:

- `wall_s`: time to finish the whole batch, the median over passes of the
  sum of scaled per-instance times;
- `peak_rss_mb`: peak resident memory of the benchmark process;
- `setup_s`: median over several set-ups (this process and fresh child
  processes) of the scaled time from process start to the first timed
  instance: imports, instance generation and writing the files.

The line before it gives the scaled per-instance times (from the `main()`
call to a parsed report) as their median and the highest percentile with
at least ten instances beyond it, with the instance count. These are not
metrics with a bound: where a batch mixes instances the program settles at
once with ones it has to search, the median swings with the seed.

With `--trace 1` the run makes one untraced pass and one traced pass (see
`spans.py`), requires byte-identical reports from both, cross-checks the
traced counters against the reports, prints a per-layer table and reports
the per-layer metrics.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from typing import Callable, Dict, List, Optional, Sequence  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

INSTANCE_CAP_S = 30.0   # per-instance alarm; the slowest instance takes about 2 s
RUN_BUDGET_S = 110.0    # no instance starts after this much timed work
SETUP_PROBES = 4        # fresh child processes timing the set-up, besides this one
SMOOTH = 2              # calibrations on each side in the local median


class InstanceCapped(BaseException):
    """Raised by the alarm when one instance exceeds its cap.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


class _Alarm:
    """Per-instance time cap delivered as an exception in the main thread."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, *_):
        if self.armed:
            self.armed = False
            raise InstanceCapped()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


_CAL_ARRAY = [[(3 * i + 7 * j) % 11 / 11.0 for j in range(60)] for i in range(40)]


def _cal_rational():
    s = Fraction(0)
    for k in range(1, 200):
        s += Fraction(k % 5 + 1, k)


def _cal_numpy():
    x = np.array(_CAL_ARRAY)
    for k in range(40):
        x -= np.outer(x[:, k], x[k]) * 1e-3


# Each calibration kernel with its time on the reference host (2-core x86,
# Python 3.11, numpy 2.4), so that a factor of 1 means reference speed. Of
# the kernels tried (also a bytecode loop and dict/list allocation), these
# two tracked the drift of all four workloads best on repeated runs of one
# batch: 2% run-to-run spread left where raw times spread 4% to 11%.
CALIBRATION = ((_cal_rational, 0.6e-3), (_cal_numpy, 0.5e-3))


def calibrate() -> float:
    """Host slowdown now: mean over the kernels of time over reference time."""
    total = 0.0
    for kernel, ref in CALIBRATION:
        start = time.perf_counter()
        kernel()
        total += (time.perf_counter() - start) / ref
    return total / len(CALIBRATION)


@dataclass
class Outcome:
    exit_code: Optional[int]
    stdout: str
    report: Optional[dict]
    seconds: float
    error: Optional[str] = None
    slowdown: float = 1.0   # local median calibration factor


def import_program():
    """Import `orientcut` from this checkout's `src/`, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "orientcut", "cli.py")):
        raise SystemExit(f"error: no orientcut sources under {SRC}")
    sys.path.insert(0, SRC)
    import orientcut.cli

    where = os.path.dirname(os.path.abspath(orientcut.cli.__file__))
    if where != os.path.join(SRC, "orientcut"):
        raise SystemExit(f"error: orientcut imported from {where}, not from {SRC}")
    return orientcut.cli


def run_instance(inst, directory: str, main: Callable, alarm: _Alarm,
                 cap: float = INSTANCE_CAP_S) -> Outcome:
    """Run one command in-process; time it from the call to a parsed report."""
    out = io.StringIO()
    code, report, error = None, None, None
    start = time.perf_counter()
    try:
        alarm.arm(cap)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(inst.argv(directory))
        alarm.disarm()
        report = json.loads(out.getvalue())
    except InstanceCapped:
        error = f"capped at {cap:g} s"
    except Exception as exc:  # any program failure counts against the instance
        error = f"{type(exc).__name__}: {exc}"
    finally:
        alarm.disarm()
    return Outcome(code, out.getvalue(), report, time.perf_counter() - start, error)


def run_pass(instances, directory: str, main: Callable, alarm: _Alarm,
             budget_end: float, each: Optional[Callable] = None) -> List[Outcome]:
    """One pass over the batch, a calibration before each instance."""
    outcomes, factors = [], []
    for inst in instances:
        if time.perf_counter() > budget_end:
            outcomes.append(Outcome(None, "", None, 0.0, "not started: run budget spent"))
            continue
        factors.append(calibrate())
        outcomes.append(each(inst) if each else run_instance(inst, directory, main, alarm))
    for k, out in enumerate(outcomes[:len(factors)]):
        out.slowdown = statistics.median(factors[max(0, k - SMOOTH):k + SMOOTH + 1])
    return outcomes


def scaled(out: Outcome) -> float:
    return out.seconds / out.slowdown


def failures(instances, passes: Sequence[List[Outcome]]) -> Dict[str, str]:
    """Instance name -> reason, over every pass; answers are checked here."""
    bad: Dict[str, str] = {}
    first = passes[0]
    for k, inst in enumerate(instances):
        for outs in passes:
            o = outs[k]
            if o.error:
                bad[inst.name] = o.error
                break
            if o.stdout != first[k].stdout:
                bad[inst.name] = "report differs between passes"
                break
        else:
            reason = checks.check(inst, first[k].exit_code, first[k].report)
            if reason:
                bad[inst.name] = reason
    return bad


def environment() -> dict:
    nproc = os.cpu_count()
    blas = next((f"{v}={os.environ[v]}" for v in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                 if os.environ.get(v)), f"library default ({nproc})")
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": nproc, "blas_threads": blas}


def setup_probes(args) -> List[float]:
    """Set-up time of fresh processes doing exactly this run's set-up."""
    times = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", f"probe{k}"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def quantile_report(times: List[float]) -> str:
    """Median and the highest listed percentile with ten instances beyond it."""
    n = len(times)
    line = f"solve_s p50 {statistics.median(times):.4f}"
    for p in (99, 95, 90, 80):
        if n * (100 - p) >= 1000:
            q = statistics.quantiles(times, n=100, method="inclusive")[p - 1]
            line += f", p{p} {q:.4f}"
            break
    return line + f" over {n} instances"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="NAME", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_program()
    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.GENERATORS)}")
    directory = os.path.join(WORK, args.setup_probe or f"{args.workload}-{args.seed}")
    instances = workloads.generate(args.workload, args.seed)
    workloads.write_instances(instances, directory)
    setup = (time.perf_counter() - STARTED) / statistics.median(
        calibrate() for _ in range(3))
    if args.setup_probe:
        shutil.rmtree(directory, ignore_errors=True)
        print(f"{setup:.6f}")
        return 0

    alarm = _Alarm()
    run_start = time.perf_counter()
    budget_end = run_start + RUN_BUDGET_S
    passes, walls = [], []
    tracer = None
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(instances, directory, cli.main, alarm, budget_end))
        walls.append(time.perf_counter() - t0)
        now = time.perf_counter()
        if args.trace or now + statistics.median(walls) > run_start + args.seconds \
                or now > budget_end:
            break
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            passes.append(run_pass(instances, directory, cli.main, alarm, budget_end,
                                   lambda inst: spans.run_traced(tracer, inst, lambda: (
                                       run_instance(inst, directory, cli.main, alarm)))))
        finally:
            tracer.uninstall()
        walls.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad = failures(instances, passes)
    mismatches = tracer.mismatches if tracer else []
    env = environment()
    timed = passes[:1] if tracer else passes
    per_instance = [statistics.median(scaled(outs[k]) for outs in timed)
                    for k in range(len(instances))]
    batch = [sum(scaled(o) for o in outs) for outs in passes]
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: "
          f"{'untraced and traced pass' if tracer else f'{len(passes)} pass(es)'} of "
          f"{len(instances)} instances; raw wall {' '.join(f'{w:.3f}' for w in walls)} s; scaled "
          f"{' '.join(f'{b:.3f}' for b in batch)} s; " + quantile_report(per_instance))
    for name, reason in sorted(bad.items()):
        print(f"FAILED {name}: {reason}")
    for line in mismatches[:20]:
        print(f"CROSS-CHECK {line}")

    if tracer:
        layers = tracer.per_layer(sum(o.seconds for o in passes[1]), batch[1] - batch[0])
        for name, value in layers.items():
            print(f"layer {name:34s} {value:.6g}")
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed, "env": env,
                     "per_layer": layers})
        metrics = {name: {"value": value, "unit": spans.UNITS[name]}
                   for name, value in layers.items()}
    else:
        setups = [setup] + setup_probes(args)
        metrics = {
            "wall_s": {"value": statistics.median(batch), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({"correct": not bad and not mismatches, "attempted": len(instances),
                      "failed": len(bad), "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
