"""Self-test of the benchmark: tracing changes no result and its counts
repeat exactly.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run._import_library()

# a cheap slice of each in-process workload that still crosses every layer
# those workloads use, including one known-defect task per workload
SURVEY_IDS = {"p0/catalog/lewis-cross", "p0/catalog/vertical-line",
              "p0/catalog/triple-line", "p0/line-0", "p0/log2-0",
              "p0/exp-wedge-1", "p0/defect/exp-exp-R30"}
DISC_IDS_PREFIX = ("p0/lewis-deg1-0", "p0/rescale-0", "p0/local-", "p0/tracts-",
                   "p0/defect/")


def _slice():
    survey = [t for t in workloads.build("range-survey", 7, 1)
              if t.id in SURVEY_IDS]
    disc = [t for t in workloads.build("disc-search", 7, 1)
            if t.id.startswith(DISC_IDS_PREFIX)]
    return survey + disc


def _traced(tasks):
    tr = tracer.Tracer()
    tr.install()
    try:
        records, _ = run.run_tasks(tasks)
    finally:
        tr.uninstall()
    return tr, records


def test_traced_counts_repeat_and_outputs_match_untraced():
    tasks = _slice()
    plain, _ = run.run_tasks(tasks)
    first, traced1 = _traced(tasks)
    second, traced2 = _traced(tasks)
    assert first.counts and dict(first.counts) == dict(second.counts)
    assert dict(first.fn_calls) == dict(second.fn_calls)
    for a, b, c in zip(plain, traced1, traced2):
        assert a["digest"] == b["digest"] == c["digest"], a["task"].id
        assert a["error"] == b["error"], a["task"].id
    # the known defects are in the slice and fail the same way both times
    assert sum(1 for r in plain if r["task"].known_defect and r["error"]) == 2
    assert not [r["task"].id for r in plain
                if r["error"] and not r["task"].known_defect]


def test_rescaled_searches_count_their_circle_scans():
    rescale = [t for t in workloads.build("disc-search", 7, 1)
               if t.id == "p0/rescale-0"]
    tr, records = _traced(rescale)
    assert records[0]["error"] is None
    # one search per schedule entry, each scanning circles of its own
    assert tr.counts["lewis.searches"] == 2
    assert tr.counts["lewis.circles_scanned"] > 0
    assert tr.fn_calls["lewis.lewis_disc_search"] == 2


def test_self_time_covers_each_span_once():
    tr, _ = _traced(_slice()[:3])
    # every span's time is counted once as self time, so the layer self
    # times add up to the time under the root
    assert sum(tr.self_s.values()) == pytest.approx(tr.stack[0].child, rel=1e-9)
    assert all(parent < span for span, parent, *_ in tr.spans)


def test_uninstall_restores_every_binding():
    import harmonic_range
    from harmonic_range import cli, expressions, lewis
    before = (expressions.HarmonicComponent.__dict__["value"],
              expressions.HarmonicComponent.__dict__["__call__"],
              lewis.circle_max, cli.lewis_disc_search,
              harmonic_range.sample_range)
    tr = tracer.Tracer()
    tr.install()
    patched = (expressions.HarmonicComponent.__dict__["value"],
               expressions.HarmonicComponent.__dict__["__call__"],
               lewis.circle_max, cli.lewis_disc_search,
               harmonic_range.sample_range)
    tr.uninstall()
    after = (expressions.HarmonicComponent.__dict__["value"],
             expressions.HarmonicComponent.__dict__["__call__"],
             lewis.circle_max, cli.lewis_disc_search,
             harmonic_range.sample_range)
    assert all(p is not b for p, b in zip(patched, before))
    assert patched[0] is patched[1]  # the alias shares the wrapper
    assert after == before


def test_cli_traced_child_matches_plain_cli(tmp_path):
    tasks = [t for t in workloads.build("cli-session", 7, 1)
             if t.id in ("p0/catalog", "p0/bad-map", "p0/zeros-csv")]
    counts = []
    outputs = []
    for trace in (False, True, True):
        launcher = run.CliLauncher(tmp_path, trace=trace)
        records, _ = run.run_tasks(launcher.bind(tasks))
        assert [r["error"] for r in records] == [None, None, None]
        outputs.append([r["digest"] for r in records])
        if trace:
            counts.append(tracer.merge(launcher.summaries)["counts"])
    assert outputs[0] == outputs[1] == outputs[2]
    assert counts[0] == counts[1] and counts[0]["catalog.loads"] == 1


def test_tail_has_ten_tasks_beyond():
    xs = [float(i) for i in range(40)]
    value, pct = run.tail(xs)
    assert value == 29.0 and sum(x > value for x in xs) == 10
    assert pct == pytest.approx(75.0)


def test_every_workload_has_a_tail_at_p70_or_above():
    for name in workloads.WORKLOADS:
        tasks = workloads.build(name, 1, 20, run.MIN_TASKS)
        _, pct = run.tail([0.0] * len(tasks))
        assert pct >= 70.0, name


def test_same_seed_same_inputs():
    a = [(t.id, t.argv) for t in workloads.build("cli-session", 3, 20)]
    b = [(t.id, t.argv) for t in workloads.build("cli-session", 3, 20)]
    c = [(t.id, t.argv) for t in workloads.build("cli-session", 4, 20)]
    assert a == b and a != c


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = subprocess.run([sys.executable, "bench/run.py", "--workload",
                        "disc-search", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
    with pytest.raises(ValueError):
        json.loads(p.stdout)
