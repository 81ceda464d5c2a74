import csv
import io
import re
from dataclasses import replace
from pathlib import Path

import pytest

from rangemon.bench import (
    CSV_COLUMNS,
    SWEEPABLE,
    ExperimentSpec,
    _apply_point,
    measure_throughput,
    parse_experiment,
    result_hash,
    run_experiment,
)
from rangemon.cli import main
from rangemon.cluster import ClusterSpec
from rangemon.config import Config
from rangemon.workload import WorkloadSpec, iter_event_records, write_events

SMALL = dict(grid_n=10, index_workers=2, query_workers=2, alpha=6, m=4)


def small_experiment(engine="drqa", **kw):
    defaults = dict(
        name="t",
        repetitions=1,
        workload=WorkloadSpec(n_objects=500, n_queries=10, ticks=2,
                              radius=0.05, object_speed=0.01, grid_n=10, seed=3),
        cluster=ClusterSpec(**SMALL, engine=engine),
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_config_parsing(tmp_path):
    p = tmp_path / "c.conf"
    p.write_text(
        "# comment\n"
        "grid.n = 25\n"
        "tree.alpha = 10\n"
        "tree.m = 9\n"
        "routing.jaccard_threshold = 0.4\n"
        "rng.seed = 7\n"
        "cluster.index_workers = 3\n"
        "cluster.query_workers = 2\n"
        "cluster.transport = loopback\n"
    )
    cfg = Config.load(p)
    spec = cfg.cluster_spec()
    assert spec.grid_n == 25 and spec.alpha == 10 and spec.m == 9
    assert spec.jaccard_threshold == 0.4 and spec.seed == 7
    assert spec.index_workers == 3 and spec.query_workers == 2


def test_config_rejects_garbage(tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("this is not a key value line\n")
    with pytest.raises(ValueError):
        Config.load(p)


def test_sweep_row_count(tmp_path):
    exp = small_experiment(sweeps={"alpha": [5, 10, 20, 40]}, repetitions=2)
    rows = run_experiment(exp, tmp_path / "out.csv")
    assert len(rows) == 8
    with open(tmp_path / "out.csv", newline="") as fp:
        parsed = list(csv.DictReader(fp))
    assert len(parsed) == 8
    assert list(parsed[0].keys()) == CSV_COLUMNS
    assert {r["param"] for r in parsed} == {"alpha"}
    assert all(float(r["build_time"]) >= 0 for r in parsed)


def test_m_sweep_populates_build_time(tmp_path):
    exp = small_experiment(sweeps={"m": [4, 6, 9]})
    rows = run_experiment(exp, tmp_path / "out.csv")
    assert len(rows) == 3
    assert all(row["build_time"] >= 0.0 for row in rows)
    assert [row["m"] for row in rows] == [4, 6, 9]


def test_engines_agree_on_result_hash(tmp_path):
    hashes = {}
    for engine in ("drqa", "gi", "ns"):
        exp = small_experiment(engine=engine)
        rows = run_experiment(exp, tmp_path / f"{engine}.csv")
        hashes[engine] = rows[0]["result_hash"]
    assert hashes["drqa"] == hashes["gi"] == hashes["ns"]


def test_rerun_reproduces_correctness_columns(tmp_path):
    exp = small_experiment()
    r1 = run_experiment(exp, tmp_path / "a.csv")
    r2 = run_experiment(exp, tmp_path / "b.csv")
    keys = ("objects_examined", "messages_sent", "result_hash")
    assert [{k: row[k] for k in keys} for row in r1] == [{k: row[k] for k in keys} for row in r2]


def test_replay_matches_generated(tmp_path):
    spec = WorkloadSpec(n_objects=300, n_queries=5, ticks=3,
                        radius=0.06, object_speed=0.01, query_speed=0.01, grid_n=10, seed=4)
    wl_path = tmp_path / "events.jsonl"
    with open(wl_path, "w") as fp:
        write_events(fp, iter_event_records(spec))
    exp = small_experiment(workload=spec, workload_file=str(wl_path))
    rows = run_experiment(exp, tmp_path / "out.csv")
    assert rows[0]["result_hash"]
    # the same stream replayed on the scan baseline must agree
    exp_ns = small_experiment(engine="ns", workload=spec, workload_file=str(wl_path))
    rows_ns = run_experiment(exp_ns, tmp_path / "out_ns.csv")
    assert rows_ns[0]["result_hash"] == rows[0]["result_hash"]


def test_result_hash_deterministic():
    assert result_hash({1: {3, 2}, 0: set()}) == result_hash({0: set(), 1: {2, 3}})
    assert result_hash({1: {2}}) != result_hash({1: {3}})


def test_invalid_sweep_param():
    with pytest.raises(ValueError):
        small_experiment(sweeps={"bogus": [1]})
    with pytest.raises(ValueError):
        small_experiment(sweeps={"alpha": [-1]})


def test_parse_experiment_defaults(tmp_path):
    p = tmp_path / "e.conf"
    p.write_text(
        "experiment.name = alpha-sweep\n"
        "experiment.engine = gi\n"
        "experiment.repetitions = 2\n"
        "workload.distribution = GD\n"
        "workload.objects = 1000\n"
        "workload.queries = 20\n"
        "workload.radius = 0.04\n"
        "workload.gauss_sigma = 0.1,0.3\n"
        "sweep.alpha = 5,10\n"
    )
    exp = parse_experiment(Config.load(p))
    assert exp.name == "alpha-sweep"
    assert exp.cluster.engine == "gi"
    assert exp.repetitions == 2
    assert exp.workload.distribution == "GD"
    assert exp.workload.n_objects == 1000
    assert exp.workload.gauss_sigma == (0.1, 0.3)
    assert exp.sweeps == {"alpha": [5.0, 10.0]}


def test_unknown_config_keys_are_rejected_by_name(tmp_path, capsys):
    demo = Path(__file__).resolve().parent.parent / "experiments" / "demo.conf"
    exp = parse_experiment(Config.load(demo))
    assert exp.name == "demo-alpha-sweep" and exp.cluster.index_workers == 4
    # a mistyped key used to be ignored, grid.workers was a second name
    # for cluster.index_workers, queues.object_cap split the build into
    # ticks, and queues.query_cap sized the throughput probe's queue; each
    # now fails, naming the key
    for key in ("workload.radious", "grid.workers", "queues.object_cap", "queues.query_cap"):
        p = tmp_path / "e.conf"
        p.write_text(f"workload.radius = 0.05\n{key} = 4\n")
        with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
            parse_experiment(Config.load(p))
        assert main(["--experiment", str(p), "--out", str(tmp_path / "out.csv")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


def test_config_defaults_are_the_spec_defaults():
    # a key a file leaves out keeps the default of the field it sets
    assert parse_experiment(Config()) == ExperimentSpec()


def test_malformed_config_values_fail_by_key(tmp_path, capsys):
    for key, raw in (("workload.gauss_mean", "0.4"), ("workload.gauss_sigma", "0.1,0.2,0.3"),
                     ("tree.m", "6.5"), ("workload.radius", "wide"),
                     ("measure.throughput", "maybe"), ("sweep.alpha", "5,ten"),
                     # values of the right type that the spec's own check rejects
                     ("experiment.engine", "dqra"), ("cluster.transport", "tcp"),
                     ("workload.distribution", "XX"), ("cluster.index_workers", "0"),
                     ("tree.alpha", "1"), ("tree.m", "1"),
                     # sweep points, each built before any run
                     ("sweep.m", "2.5"), ("sweep.alpha", "20,1")):
        p = tmp_path / "e.conf"
        p.write_text(f"{key} = {raw}\n")
        with pytest.raises(ValueError, match=f"^{key}: "):
            parse_experiment(Config.load(p))
        assert main(["--experiment", str(p), "--out", str(tmp_path / "out.csv")]) == 1
        assert f"rangemon: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("records, named", [
    # a move of a query whose registration expired at its t_end
    ([{"tick": 0, "kind": "object", "id": 1, "x": 0.5, "y": 0.5},
      {"tick": 0, "kind": "query", "id": 5, "x": 0.5, "y": 0.5, "r": 0.1, "t_end": 1},
      {"tick": 1, "kind": "query_move", "id": 5, "x": 0.4, "y": 0.5}],
     "tick 1: query_move of query 5, which is not registered"),
    ([{"tick": 0, "kind": "object", "id": 1, "x": 0.5, "y": 0.5},
      {"tick": 2, "kind": "query", "id": 3, "x": 0.5, "y": 0.5, "t_end": 9}],
     "tick 2: a record has no field 'r'"),
])
def test_malformed_replay_names_its_fault(tmp_path, capsys, records, named):
    wl_path = tmp_path / "events.jsonl"
    with open(wl_path, "w") as fp:
        write_events(fp, records)
    with pytest.raises(ValueError, match=re.escape(f"{wl_path}: {named}")):
        run_experiment(small_experiment(workload_file=str(wl_path)), tmp_path / "out.csv")
    conf = tmp_path / "e.conf"
    conf.write_text(f"workload.file = {wl_path}\n")
    assert main(["--experiment", str(conf), "--out", str(tmp_path / "cli.csv")]) == 1
    assert f"rangemon: {wl_path}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "cli.csv").exists()


def test_each_sweep_parameter_sets_its_field():
    exp = ExperimentSpec()
    base = dict(zip(("workload", "cluster"), _apply_point(exp, None, 0.0)))
    for param, (part, name) in SWEEPABLE.items():
        point = dict(zip(("workload", "cluster"), _apply_point(exp, param, 7.0)))
        assert point == {**base, part: replace(base[part], **{name: 7})}, param
        counts = ("m", "alpha", "objects", "queries")
        assert type(getattr(point[part], name)) is (int if param in counts else float), param


def test_cli_end_to_end(tmp_path, capsys):
    exp_file = tmp_path / "exp.conf"
    exp_file.write_text(
        "experiment.name = demo\n"
        "grid.n = 10\n"
        "cluster.index_workers = 2\n"
        "tree.alpha = 6\n"
        "tree.m = 4\n"
        "workload.objects = 300\n"
        "workload.queries = 5\n"
        "workload.ticks = 1\n"
        "workload.radius = 0.05\n"
    )
    out = tmp_path / "metrics.csv"
    code = main(["--experiment", str(exp_file), "--out", str(out), "--engine", "drqa", "--seed", "5"])
    assert code == 0
    assert out.exists()
    with open(out, newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 1 and rows[0]["engine"] == "drqa" and rows[0]["seed"] == "5"
    assert "demo: 1 rows" in capsys.readouterr().out


def test_cli_errors_are_nonzero(tmp_path, capsys):
    code = main(["--experiment", str(tmp_path / "missing.conf")])
    assert code == 1
    assert "rangemon:" in capsys.readouterr().err


def test_throughput_probe_smoke():
    exp = small_experiment(workload=WorkloadSpec(
        n_objects=200, n_queries=5, ticks=1, radius=0.03, grid_n=10, seed=6,
    ))
    rate = measure_throughput(exp)
    assert rate >= 32.0  # a trivial workload sustains at least the floor rate
