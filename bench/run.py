"""Benchmark for harmonic-range: three workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload range-survey --seed 1 --seconds 20 --trace 0

Workloads: ``range-survey`` and ``disc-search`` run their seeded task
lists in this process; ``cli-session`` starts one CLI subprocess per task.
Every run executes a fixed task list made from ``--seed``, one client,
closed loop, with every BLAS and OpenMP pool pinned to one thread,
children included.  The pass count follows from ``--seconds``, raised
until the list has ``MIN_TASKS`` tasks so that the tail has ten tasks
beyond it at p70 or above; cli-session therefore always runs two passes
of its script, about a minute on the reference machine.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
list untraced and then traced (wrappers from ``tracer.py``) and prints the
per-layer metrics, including the tracing overhead.  The last line of
stdout is one JSON object; the line before it is a JSON report listing
every failing task with its reason.  The library is imported from
``src/`` of the checkout and from nowhere else.
"""

from __future__ import annotations

import os

THREAD_VARS = ("HARMONIC_RANGE_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_STARTS = 4     # fresh interpreters per run for setup_s, half before
                     # the timed loop and half after it
IMPORT_STARTS = 3    # fresh interpreters per traced run for cli.import_s
WARMUP_TASKS = 2
TAIL_BEYOND = 10     # the tail value has at least this many tasks above it
MIN_TASKS = 34       # so that the tail sits at p70 or above
CHILD_TIMEOUT_S = 120.0


class LayoutError(RuntimeError):
    pass


def _check_layout() -> None:
    if not (SRC / "harmonic_range" / "__init__.py").is_file():
        raise LayoutError(f"no library sources at {SRC / 'harmonic_range'}")


def _child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def run_child(argv, out_path: Path, err_path: Path, env=None):
    """Run one process to completion: (exit code, wall seconds, peak RSS MB).

    The child is reaped with wait4 so its own peak RSS is read; a watchdog
    kills it after CHILD_TIMEOUT_S."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=env or _child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def fresh_starts(argv, work: Path, label: str, n: int) -> list[float]:
    walls = []
    for i in range(n):
        code, wall, _ = run_child(argv, work / f"{label}-{i}.out",
                                  work / f"{label}-{i}.err")
        if code != 0:
            err = (work / f"{label}-{i}.err").read_text(errors="replace")
            raise RuntimeError(f"{label} start exited {code}: {err[-400:]}")
        walls.append(wall)
    return walls


def _import_library():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import harmonic_range
    origin = Path(harmonic_range.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise LayoutError(f"harmonic_range imported from {origin}, not {SRC}")


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------

class CliLauncher:
    """Runs CLI tasks as subprocesses.  ``bind`` gives each task a ``run``
    that launches its call and reads back what the call left: exit code,
    stdout, and each artifact's size and hash (the artifact is then
    removed; input files stay).  With ``trace`` set, the child installs
    the tracer and leaves its summary in the work directory."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.summaries: list[dict] = []
        self.peak_rss_mb = 0.0
        self.stdout_bytes = 0
        self.exit_codes: dict[int, int] = {}
        self.n = 0

    def bind(self, tasks):
        return [dataclasses.replace(t, run=functools.partial(self, t))
                for t in tasks]

    def __call__(self, task):
        argv = [a.replace("{work}", str(self.work)) for a in task.argv]
        self.n += 1
        out_p = self.work / f"cli-{self.n}.out"
        err_p = self.work / f"cli-{self.n}.err"
        trace_p = self.work / f"cli-{self.n}.trace.json"
        if self.trace:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), *argv]
            env = _child_env(BENCH_TRACE_OUT=str(trace_p))
        else:
            cmd = [sys.executable, "-m", "harmonic_range.cli", *argv]
            env = None
        code, _, rss = run_child(cmd, out_p, err_p, env)
        stdout = out_p.read_bytes()
        stderr = err_p.read_bytes().decode(errors="replace")
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        self.stdout_bytes += len(stdout)
        self.exit_codes[code] = self.exit_codes.get(code, 0) + 1
        artifacts = {}
        for a in task.argv:
            name = a[len("{work}/"):] if a.startswith("{work}/") else None
            if name is None or name in task.files:
                continue
            path = self.work / name
            data = path.read_bytes() if path.exists() else b""
            artifacts[name] = {"bytes": len(data), "lines": data.count(b"\n"),
                               "sha256": hashlib.sha256(data).hexdigest()}
            path.unlink(missing_ok=True)
        if self.trace and trace_p.exists():
            self.summaries.append(json.loads(trace_p.read_text()))
        err_lines = stderr.strip().splitlines() or [""]
        return {"code": code, "stdout": stdout.decode(errors="replace"),
                "stderr_last": err_lines[-1][:300],
                "traceback": "Traceback" in stderr, "artifacts": artifacts}


def run_tasks(tasks):
    """Closed loop over the task list.  Returns per-task records and the
    loop's wall time; outputs are checked afterwards, off the clock."""
    records = []
    t_start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            out = task.run()
            error = None
        except Exception as exc:  # a crash is a failed task, not a failed run
            out, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
        records.append({"task": task, "latency": time.perf_counter() - t0,
                        "out": out, "error": error})
    wall = time.perf_counter() - t_start
    for rec in records:
        task, out = rec["task"], rec["out"]
        if rec["error"] is None:
            try:
                rec["error"] = task.check(out)
            except Exception as exc:
                rec["error"] = f"check raised {type(exc).__name__}: {exc}"
        blob = rec["error"] if out is None else task.stable(out)
        rec["digest"] = hashlib.sha256(
            json.dumps(blob, sort_keys=True, default=repr).encode()).hexdigest()
    return records, wall


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least TAIL_BEYOND tasks
    beyond it, and that percentile."""
    xs = sorted(latencies)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def summarize(records, wall) -> dict:
    lat = [r["latency"] for r in records]
    failures = [{"id": r["task"].id, "reason": r["error"],
                 "known_defect": r["task"].known_defect}
                for r in records if r["error"] is not None]
    tail_s, tail_pct = tail(lat)
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r["task"].kind, []).append(r["latency"])
    return {"tasks": len(records), "wall_s": wall, "failures": failures,
            "p50": statistics.median(lat), "tail": tail_s,
            "tail_percentile": tail_pct, "tasks_per_s": len(records) / wall,
            "kind_p50_s": {k: statistics.median(v) for k, v in sorted(kinds.items())}}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, work: Path) -> dict:
    _check_layout()
    import workloads
    setup_argv = [sys.executable, str(BENCH / "run.py"), "--workload",
                  args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--setup-only"]
    first_starts = SETUP_STARTS // 2
    setup_walls = []
    if not args.trace:
        setup_walls += fresh_starts(setup_argv, work, "setup-a", first_starts)
    _import_library()
    tasks = workloads.build(args.workload, args.seed, args.seconds, MIN_TASKS)
    launcher = None
    if args.workload == "cli-session":
        for task in tasks:
            for name, text in task.files.items():
                (work / name).write_text(text)
        launcher = CliLauncher(work, trace=False)
        tasks = launcher.bind(tasks)
    else:
        for task in tasks[:WARMUP_TASKS]:
            try:
                task.run()
            except Exception:  # the timed loop records the failure
                pass

    records, wall = run_tasks(tasks)
    if not args.trace:
        setup_walls += fresh_starts(setup_argv, work, "setup-b",
                                    SETUP_STARTS - first_starts)
    s = summarize(records, wall)
    if launcher is None:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss = launcher.peak_rss_mb
    unexpected = [f for f in s["failures"] if not f["known_defect"]]
    report = {"workload": args.workload, "seed": args.seed,
              "passes": len({t.id.split("/", 1)[0] for t in tasks}),
              "tasks": s["tasks"], "loop_wall_s": wall,
              "setup_starts_s": setup_walls,
              "tail_percentile": s["tail_percentile"],
              "tail_tasks_beyond": TAIL_BEYOND, "kind_p50_s": s["kind_p50_s"],
              "failures": s["failures"], "unexpected_failures": len(unexpected)}
    correct = not unexpected

    if not args.trace:
        metrics = {
            "setup_s": _metric(statistics.median(setup_walls), "s"),
            "task_p50_s": _metric(s["p50"], "s"),
            "task_tail_s": _metric(s["tail"], "s"),
            "tasks_per_s": _metric(s["tasks_per_s"], "1/s"),
            "pass_frac": _metric((s["tasks"] - len(s["failures"])) / s["tasks"], "ratio"),
            "peak_rss_mb": _metric(peak_rss, "MB"),
        }
    else:
        metrics, traced_ok = _traced(work, tasks, launcher, records, s, report)
        correct = correct and traced_ok
    report["correct"] = correct
    print(json.dumps(report, sort_keys=True))
    return {"correct": correct, "attempted": s["tasks"],
            "failed": len(s["failures"]), "metrics": metrics}


def _traced(work, tasks, launcher, records, s, report):
    """Second pass over the same list with the tracer installed: in this
    process, or in each CLI child."""
    import tracer as tracer_mod
    import_s = statistics.median(fresh_starts(
        [sys.executable, "-c", "import harmonic_range.cli"], work, "import",
        IMPORT_STARTS))
    if launcher is None:
        tr = tracer_mod.Tracer()
        tr.install()
        try:
            traced, wall = run_tasks(tasks)
        finally:
            tr.uninstall()
        summary = tr.summary()
        cli = {"exit": {}, "stdout_bytes": 0}
    else:
        launcher = CliLauncher(work, trace=True)
        traced, wall = run_tasks(launcher.bind(tasks))
        summary = tracer_mod.merge(launcher.summaries)
        cli = {"exit": launcher.exit_codes, "stdout_bytes": launcher.stdout_bytes}
    t = summarize(traced, wall)
    mismatched = [a["task"].id for a, b in zip(records, traced)
                  if a["digest"] != b["digest"]]
    report["traced_output_mismatches"] = mismatched
    report["traced_failures"] = t["failures"]
    report["spans"] = summary["spans"]
    report["top_self_s"] = dict(sorted(summary["fn_self_s"].items(),
                                       key=lambda kv: -kv[1])[:12])
    metrics = {name: _metric(v, unit)
               for name, (v, unit) in tracer_mod.layer_metrics(summary).items()}
    metrics["cli.import_s"] = _metric(import_s, "s")
    metrics["cli.stdout_bytes"] = _metric(cli["stdout_bytes"], "count")
    for code in (0, 1, 2):
        metrics[f"cli.exit{code}"] = _metric(cli["exit"].get(code, 0), "count")
    metrics["trace.overhead_frac"] = _metric(
        s["tasks_per_s"] / t["tasks_per_s"] - 1.0, "ratio")
    same_failures = ([f["id"] for f in s["failures"]]
                     == [f["id"] for f in t["failures"]])
    return metrics, not mismatched and same_failures


def main(argv=None) -> int:
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the library and build the inputs, then exit "
                        "(one fresh-interpreter start for setup_s)")
    args = p.parse_args(argv)
    # a terminated run still unwinds: children are killed, work files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.setup_only:
            _check_layout()
            _import_library()
            workloads.build(args.workload, args.seed, args.seconds, MIN_TASKS)
            return 0
        work = ROOT / ".bench_work" / str(os.getpid())
        work.mkdir(parents=True, exist_ok=True)
        try:
            result = run(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (LayoutError, RuntimeError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
