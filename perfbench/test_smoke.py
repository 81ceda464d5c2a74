"""Smoke test of the benchmark itself, on the small ``tiny`` workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(out_dir: Path, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "tiny", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--out", str(out_dir)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_end_to_end_metrics_print_with_units(tmp_path):
    lines, result = run_bench(tmp_path, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.startswith(f"{metric['name']} ") and f" {metric['unit']}" in line for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    fail_line = next(line for line in lines if line.startswith("fail_frac "))
    assert fail_line.split()[1] == "0"


def test_traced_counts_repeat_exactly(tmp_path):
    _, first = run_bench(tmp_path, trace=1)
    _, second = run_bench(tmp_path, trace=1)
    assert first["failed"] == second["failed"] == 0
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {name for name, m in first["metrics"].items() if m["unit"] != "s"}
    assert first["metrics"]["transport.msgs"]["value"] > 0
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert (tmp_path / "spans-tiny-7.json").exists()
