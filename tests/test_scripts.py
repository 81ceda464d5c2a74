"""The scripts under ``scripts/`` import the package by name, so a refactor
of ``src/`` that breaks one must fail here.  Each script is imported by
path, or run in a subprocess as a user runs it."""

import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rangemon.bench import run_single
from rangemon.cluster import ClusterSpec
from rangemon.workload import WorkloadSpec, iter_event_records, write_events

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_script_prints_its_help(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_paired_ratio_is_taken_within_each_repeat():
    paper_bench = load("paper_bench")

    def runs(initial, incremental):
        return [{"query_time_initial": a, "query_time_incremental": b}
                for a, b in zip(initial, incremental)]

    summary = paper_bench.paired({
        "drqa": runs([1, 2, 3, 2, 1], [3, 3, 2.5, 4, 5]),
        # gi has the lower initial median, though ns is faster in repeats 1 and 3
        "gi": runs([2, 4, 2, 4, 2], [4, 4, 4, 4, 4]),
        "ns": runs([3, 1, 3, 1, 3], [2, 2, 2, 2, 2]),
    })
    initial = summary["query_time_initial"]
    assert initial["best_baseline"] == "gi"
    assert (initial["drqa_median_s"], initial["best_baseline_median_s"]) == (2, 2)
    # ratios 0.5, 0.5, 1.5, 0.5, 0.5: a median below 1, a spread across it
    assert (initial["ratio_median"], initial["ratio_min"], initial["ratio_max"]) == (0.5, 0.5, 1.5)
    assert initial["verdict"] == "unresolved"
    incremental = summary["query_time_incremental"]
    assert incremental["best_baseline"] == "ns"
    # ratios 1.5, 1.5, 1.25, 2, 2.5
    assert (incremental["ratio_median"], incremental["ratio_min"], incremental["ratio_max"]) == (1.5, 1.25, 2.5)
    assert incremental["verdict"] == "drqa slower"
    assert incremental["paper_ratio"] == pytest.approx(0.848)


@pytest.mark.parametrize("arg, named", [
    ("bogus=1", "cannot sweep 'bogus'"),
    ("radius=0.01,0", "sweep values for radius must be positive"),
    ("alpha=-5", "sweep values for alpha must be positive"),
    ("radius=wide", "'radius=wide'"),
])
def test_sweep_rejects_a_bad_point_by_name(arg, named, capsys):
    paper_bench = load("paper_bench")
    with pytest.raises(SystemExit) as exc:
        paper_bench.main(["--sweep", arg])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_sweep_point_reaches_the_run(monkeypatch, capsys):
    paper_bench = load("paper_bench")
    shape = dict(n_objects=300, n_queries=5, ticks=1, object_speed=0.01, seed=3)
    monkeypatch.setitem(paper_bench.SHAPES, "tiny", shape)
    assert paper_bench.sweep("radius=0.05,0.1") == ("radius", [0.05, 0.1])
    paper_bench.child("tiny", "gi", ("radius", [0.05]))
    got = json.loads(capsys.readouterr().out)
    want = run_single(WorkloadSpec(**shape, radius=0.05), ClusterSpec(engine="gi"))
    assert (got["result_hash"], got["objects_examined"]) == (want.result_hash, want.objects_examined)
    assert want.objects_examined != run_single(WorkloadSpec(**shape), ClusterSpec(engine="gi")).objects_examined


def test_gen_workload_reads_experiment_keys(tmp_path, capsys):
    gen_workload = load("gen_workload")
    out = tmp_path / "w.jsonl"
    assert gen_workload.main(["workload.distribution=GD", "workload.gauss_sigma=0.1,0.2",
                              "workload.objects=50", "workload.queries=3", "workload.ticks=2",
                              "rng.seed=3", "--out", str(out)]) == 0
    spec = WorkloadSpec(distribution="GD", gauss_sigma=(0.1, 0.2), n_objects=50, n_queries=3,
                        ticks=2, seed=3)
    want = io.StringIO()
    write_events(want, iter_event_records(spec))
    assert out.read_text() == want.getvalue()
    for arg in ("workload.radious=0.1", "experiment.engine=gi"):
        with pytest.raises(SystemExit):
            gen_workload.main([arg, "--out", str(tmp_path / "bad.jsonl")])
        assert f"unknown keys: {arg.split('=')[0]}" in capsys.readouterr().err
        assert not (tmp_path / "bad.jsonl").exists()


# objects_examined, messages_sent and result_hash of run_single on
# tests/test_bench.py's small spec, as the two tick loops gave them before
# run_single and run_replay shared one
PINNED = {
    "drqa": (122, 52),
    "gi": (558, 112),
    "ns": (15000, 160),
}
PINNED_HASH = "6ef2b72ec7c47ac8edb3511beb59f3d5241a20eb6a50893aa99168fcd01caa19"


@pytest.mark.parametrize("engine", sorted(PINNED))
def test_run_single_counts_are_pinned(engine):
    metrics = run_single(
        WorkloadSpec(n_objects=500, n_queries=10, ticks=2, radius=0.05, object_speed=0.01,
                     grid_n=10, seed=3),
        ClusterSpec(grid_n=10, index_workers=2, query_workers=2, alpha=6, m=4, engine=engine),
    )
    assert (metrics.objects_examined, metrics.messages_sent) == PINNED[engine]
    assert metrics.result_hash == PINNED_HASH


def test_count_diff_counts_the_package_source_lines(tmp_path):
    count_diff = load("count_diff")
    for side, files in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "\n"}),
                        ("change", {"a.py": "x = 1\n", "b.py": "", "c.py": "z = 3\nw = 4"})):
        package = tmp_path / side / "src" / "rangemon"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
        # neither a file of another kind nor a subpackage is counted
        (package / "notes.txt").write_text("one\ntwo\n")
        (package / "sub").mkdir()
        (package / "sub" / "d.py").write_text("v = 5\n")
    assert count_diff.src_lines(tmp_path / "parent") == 3
    assert count_diff.src_lines(tmp_path / "change") == 2  # wc counts newlines, not a last unended line


def test_tick_roles_splits_the_tick_by_role_and_kind():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "tick_roles.py"),
                           "--workload", "tiny", "--seeds", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = {}
    for line in proc.stdout.splitlines():
        if line.endswith("%"):
            key, ms, share = line.split()
            rows[key] = (float(ms), float(share.rstrip("%")))
    assert "iw.ObjectBatch" in rows and "entrance.ObjectReports" in rows
    assert all(ms >= 0 for ms, _ in rows.values())
    assert 0 < sum(share for _, share in rows.values()) <= 100
