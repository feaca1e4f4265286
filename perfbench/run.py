#!/usr/bin/env python3
"""sturmlex benchmark: time to a verdict, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdict-mix --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 1

Each workload runs in its own child process, one operation at a time in a
closed loop, making whole passes over its fixed operation list: as many as
fill ``--seconds`` at the reference speed, so that every run with the same
``--seconds`` does the same operations.  A calibration loop is timed on
either side of each operation, and each time is also reported rescaled to
the loop's reference speed.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Every output is checked against a reference answer.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAIVE = ROOT / "tests" / "naive.py"
WORKLOADS = ("verdict-mix", "prefix-gen", "dense-literal", "harness-tall")
# Time of one pass over each workload's operations at the reference speed,
# rescaled, on the defining machine.  ``--seconds`` sets the number of passes.
PASS_S = {"verdict-mix": 14.4, "prefix-gen": 4.0, "dense-literal": 6.6,
          "harness-tall": 8.0}
SETUP_RUNS = 15  # fresh processes whose set-up time is measured; median reported
IMPORT_RUNS = 5  # interpreter start-ups per side for cli.import_s
RUN_LIMIT_S = 170  # one workload run must end within this
# End-to-end metrics of the result line, as listed in BENCHMARK.json.
# wall_s, setup_measured_s, job_s.p50, job_s.p90 and cli_s.p50 (verdict-mix only) are printed
# but not listed; see NOTES.md.
END_TO_END = ("wall_ref_s", "peak_rss_mb", "setup_s")
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


# --- child side: one workload in one process ---------------------------------

def _cli_subprocess(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "sturmlex", *argv],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def _cli_in_process(sx):
    def call(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = sx.cli.main(argv)
        return code, out.getvalue()

    return call


def run_ops(ops, passes: int, call_cli, calibration, between=None) -> dict:
    """Run ``passes`` passes over the operations, in order.  The calibration
    loop is timed right before and right after each operation; the
    operation's time rescaled by the reference time over the mean of the two
    is kept as well.  ``between(k)``, if given, runs before operation k,
    outside its timing."""
    samples = {op.label: [] for op in ops}
    scaled = {op.label: [] for op in ops}
    speeds: list[float] = []
    failures: list[dict] = []
    count = passes * len(ops)
    for k in range(count):
        if between is not None:
            between(k)
        op = ops[k % len(ops)]
        before = calibration.measure()
        start = time.perf_counter()
        try:
            out = op.run() if op.argv is None else call_cli(op.argv)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            out, error = None, f"raised {exc!r}"
        took = time.perf_counter() - start
        loop_s = (before + calibration.measure()) / 2
        samples[op.label].append(took)
        scaled[op.label].append(took * calibration.reference_s / loop_s)
        speeds.append(loop_s)
        if error is None:
            error = op.check(out)
        # Drop the output before the next operation starts, so that the peak
        # RSS holds at most one operation's output.
        out = None
        if error is not None:
            # Only the documented outcome of a known defect is excused.
            failures.append({"op": op.label, "error": error,
                             "known_defect": error == op.known_defect})
    return {"samples": samples, "scaled": scaled, "speeds": speeds,
            "failures": failures, "attempted": count, "passes": passes}


def _job_wall(result: dict, kinds: dict[str, str]) -> float:
    return sum(statistics.median(xs) for label, xs in result["scaled"].items()
               if kinds[label] == "job")


def cli_import_seconds() -> float:
    """Start-up cost of ``import sturmlex.cli`` over a bare interpreter."""
    bare, loaded = [], []
    for _ in range(IMPORT_RUNS):
        for code, out in (("pass", bare), ("import sturmlex.cli", loaded)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                           check=True, timeout=60)
            out.append(time.perf_counter() - start)
    return statistics.median(loaded) - statistics.median(bare)


def _child_cmd(args, mode: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--child", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def setup_seconds(args) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(_child_cmd(args, "setup"), cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def child(args) -> int:
    # One CPU for the child and every process it starts.  On the defining
    # 2-vCPU VM one vCPU was often slower than the other (set-up 0.12 s
    # against 0.09 s in the same minute), and processes landing on either
    # made the set-up times a mixture of the two.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sturmlex as sx
    import sturmlex.cli  # noqa: F401  (the in-process CLI of the traced run)

    import workloads
    from calibration import Calibration

    workload, ops = workloads.build(args.workload, sx, args.seed)
    workload.warmup()
    setup_s = time.perf_counter() - start
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = importlib.util.spec_from_file_location("naive", NAIVE)
    naive = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(naive)
    checks = []
    for op in ops:
        if op.reference is not None:
            try:
                op.expected_stdout = op.reference()
            except Exception as exc:
                checks.append({"name": f"reference of {op.label}", "error": repr(exc)})
    extra = [("small table agrees with tests/naive.py",
              lambda: workloads.small_table_errors(sx, naive, workload.small_table_word()))]
    for name, check in extra + workload.extra_checks:
        try:
            error = check()
        except Exception as exc:
            error = f"raised {exc!r}"
        checks.append({"name": name, "error": error})

    kinds = {op.label: op.kind for op in ops}
    calibration = Calibration(workload.calibration)
    passes = max(1, round(args.seconds / PASS_S[args.workload]))
    out = {"setup_s": setup_s, "kinds": kinds, "checks": checks,
           "calibration": [calibration.kind, calibration.reference_s]}
    if args.trace:
        from spans import Tracer, layer_metrics

        half = max(1, passes // 2)
        plain = run_ops(ops, half, _cli_subprocess, calibration)
        tracer = Tracer()
        tracer.install(sx)
        try:
            traced = run_ops(ops, half, _cli_in_process(sx), calibration)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer.spans, traced["passes"])
        layers["cli.import_s"] = cli_import_seconds()
        layers["trace.overhead_frac"] = (
            _job_wall(traced, kinds) / _job_wall(plain, kinds) - 1
        )
        out["layers"] = layers
        out["runs"] = [plain, traced]
    else:
        # The other set-up processes run one at a time between operations,
        # evenly over the run, so that their median spans the run rather
        # than one moment of it: the defining VM's speed drifted within
        # seconds.  Set-up is import and input building whatever the
        # workload, so it is rescaled by the interp loop.
        setups = out["setups"] = [setup_s]
        setup_loop = Calibration("interp")
        scaled_setups = out["scaled_setups"] = [
            setup_s * setup_loop.reference_s / setup_loop.measure()]

        def timed_setup() -> None:
            before = setup_loop.measure()
            took = setup_seconds(args)
            loop_s = (before + setup_loop.measure()) / 2
            setups.append(took)
            scaled_setups.append(took * setup_loop.reference_s / loop_s)

        count = passes * len(ops)
        marks = {count * i // SETUP_RUNS for i in range(SETUP_RUNS - 1)}

        def sample_setup(k: int) -> None:
            if k in marks:
                timed_setup()

        out["runs"] = [run_ops(ops, passes, _cli_subprocess, calibration,
                               between=sample_setup)]
        while len(setups) < SETUP_RUNS:
            timed_setup()
    print(json.dumps(out))
    return 0


# --- parent side: metrics and report ------------------------------------------

def _run(cmd: list[str], deadline: float, env=None) -> subprocess.CompletedProcess:
    """Run ``cmd`` to completion; on time-out kill its whole process group."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(cmd[1:3])} did not end in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{err}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)




def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"cpu={cpu!r} platform={platform.platform()}")


def recorded_spread(workload: str) -> str:
    """Run-to-run spread measured when the benchmark was defined."""
    try:
        table = json.loads((BENCH / "spread.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return "not recorded"
    row = table.get("workloads", {}).get(workload)
    if not row:
        return "not recorded"
    return (" ".join(f"{k}={v:.3f}" for k, v in row.items())
            + f" ({table.get('method', '')})")


def _line(name: str, value, unit: str, n, note: str = "") -> str:
    shown = "-" if value is None else f"{value:.6g}"
    return f"metric {name} {shown} {unit} n={n}{(' ' + note) if note else ''}"


_LAYER_UNITS = {
    "words.parse_s": "s", "words.generate_s": "s", "words.generate_calls": "count",
    "words.letters_generated": "count", "factors.index_s": "s",
    "factors.index_calls": "count", "factors.letters_indexed": "count",
    "factors.distinct_factors": "count", "checks.window_s": "s",
    "checks.window_builds": "builds/call", "checks.window_useful_frac": "frac",
    "checks.nfop_s": "s", "checks.nfop_calls": "count", "checks.balance_s": "s",
    "checks.hamming2_s": "s", "checks.ones_s": "s", "checks.complexity_s": "s",
    "checks.recurrence_s": "s", "checks.extension_s": "s", "checks.combine_s": "s",
    "christoffel.verify_s": "s", "cli.self_s": "s", "cli.import_s": "s",
    "trace.overhead_frac": "frac",
}


def report(args, result: dict, peak_kb: int) -> dict:
    """Print the human-readable report; return the contract's JSON object."""
    kinds = result["kinds"]
    runs = result["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    unexpected = [f for f in failures if not f["known_defect"]]
    bad_checks = [c for c in result["checks"] if c["error"]]
    correct = not unexpected and not bad_checks

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env {environment()}")
    print(f"spread {recorded_spread(args.workload)}")
    for c in result["checks"]:
        print(f"reference {'pass' if not c['error'] else 'FAIL'} {c['name']}"
              + (f": {c['error']}" if c["error"] else ""))
    seen = set()
    for f in failures:
        key = (f["op"], f["error"])
        if key in seen:
            continue
        seen.add(key)
        count = sum(1 for g in failures if (g["op"], g["error"]) == key)
        tag = "known-defect" if f["known_defect"] else "FAIL"
        print(f"reference {tag} {f['op']} ({count} times): {f['error']}")
    print(f"reference operations: {attempted - len(failures)} of {attempted} "
          f"matched their reference answer")
    print(_line("failed_frac", len(failures) / attempted, "frac", attempted,
                f"({len(failures)} failed)"))
    kind, reference_s = result["calibration"]
    speeds = [x for r in runs for x in r["speeds"]]
    print(f"calibration {kind} loop: median {statistics.median(speeds):.6g} s over "
          f"{len(speeds)} operations, reference {reference_s:.6g} s")

    metrics: dict[str, dict] = {}
    if args.trace:
        layers = result["layers"]
        passes = int(runs[1]["passes"])
        for name, value in layers.items():
            if name.startswith("layer."):
                continue
            unit = _LAYER_UNITS[name]
            print(_line(name, value, unit, passes, "per traced pass"))
            metrics[name] = {"value": value, "unit": unit}
        split = {k[len("layer."):-len("_self_s")]: v for k, v in layers.items()
                 if k.startswith("layer.")}
        total = sum(split.values()) or 1.0
        print("layers self time per pass: " + " ".join(
            f"{k}={v:.4g}s({100 * v / total:.1f}%)" for k, v in split.items()))
    else:
        run = runs[0]
        samples = run["samples"]
        setups = result["setups"]
        # Each operation's median; the wall times are their sums.
        typical = {label: statistics.median(xs) for label, xs in samples.items()}
        rescaled = {label: statistics.median(xs) for label, xs in run["scaled"].items()}
        job = [x for label, xs in samples.items() if kinds[label] == "job" for x in xs]
        cli = [x for label, xs in samples.items() if kinds[label] == "cli" for x in xs]
        job_ops = [t for label, t in typical.items() if kinds[label] == "job"]
        cli_ops = [t for label, t in typical.items() if kinds[label] == "cli"]
        p90, beyond = None, 0
        if len(job) >= 2:
            cut = statistics.quantiles(job, n=10)[-1]
            beyond = sum(1 for x in job if x > cut)
            p90 = cut if beyond >= 10 else None
        values = {
            "wall_s": (sum(typical.values()), "s", len(samples),
                       f"operations, {run['passes']} passes; sum of each "
                       "operation's median"),
            "wall_ref_s": (sum(rescaled.values()), "s", len(samples),
                           f"operations, {run['passes']} passes; as wall_s, "
                           "each time rescaled to the calibration loop's "
                           "reference speed"),
            "job_s.p50": (statistics.median(job_ops), "s", len(job),
                          f"samples of {len(job_ops)} operations; median of "
                          "their medians"),
            "peak_rss_mb": (peak_kb / 1024, "MB", 1, "workload child process"),
            "setup_s": (statistics.median(result["scaled_setups"]), "s",
                        len(setups), "median of fresh processes, each rescaled "
                        "to the interp loop's reference speed"),
            "setup_measured_s": (statistics.median(setups), "s", len(setups),
                                 "median of fresh processes, as measured"),
        }
        if cli_ops:
            values["cli_s.p50"] = (statistics.median(cli_ops), "s", len(cli),
                                   f"samples of {len(cli_ops)} operations; median "
                                   "of their medians")
        for name, (value, unit, n, note) in values.items():
            print(_line(name, value, unit, n, note))
            if name in END_TO_END:
                metrics[name] = {"value": value, "unit": unit}
        print(_line("job_s.p90", p90, "s", len(job),
                    "" if p90 is not None else
                    f"not reported: {beyond} samples beyond it, 10 needed"))
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_workload(args) -> dict:
    proc = _run(_child_cmd(args, "run"), time.monotonic() + RUN_LIMIT_S, CHILD_ENV)
    result = json.loads(proc.stdout.splitlines()[-1])
    # The set-up processes are the run child's children and do less than it,
    # so they do not set the peak.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return report(args, result, peak_kb)


def run_all(args) -> dict:
    """Every workload in its own benchmark process, so peaks stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        lines = _run(cmd, time.monotonic() + RUN_LIMIT_S + 10).stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("run", "setup"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child:
        return child(args)
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "sturmlex" / "__init__.py", NAIVE)
               if not p.is_file()]
    if missing:
        print(f"error: run from a sturmlex checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
