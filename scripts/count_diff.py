#!/usr/bin/env python3
"""Traced work counts of two checkouts, side by side.

Runs ``perfbench/run.py --trace 1 --seed 1 --seconds 5`` of a parent and a
change checkout on every workload of the change's ``BENCHMARK.json``.  For
each workload it prints both sides' ``result_hash`` and every metric whose
value differs, apart from times (unit ``s``), which do not repeat from run
to run.  Counts, bytes and ratios do, so any difference among them is a
change in the work done.  Exits 1 if a ``result_hash`` differs:

    python3 scripts/count_diff.py ../parent .
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def traced_run(checkout: Path, workload: str) -> tuple[list[str], dict]:
    """The round hashes and the metrics (name -> {value, unit}) of one run."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "5", "--trace", "1", "--out", out],
            cwd=checkout, capture_output=True, text=True,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    hashes = [line.rsplit(" ", 1)[1] for line in lines if line.startswith("result_hash seed ")]
    return hashes, json.loads(lines[-1])["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    hashes_differ = False
    for workload in (w["name"] for w in spec["workloads"]):
        parent_hashes, parent = traced_run(args.parent, workload)
        change_hashes, change = traced_run(args.change, workload)
        same = parent_hashes == change_hashes
        hashes_differ |= not same
        print(f"{workload}: result_hash parent {' '.join(parent_hashes)}, "
              f"change {' '.join(change_hashes)} ({'same' if same else 'DIFFERENT'})")
        for name in sorted(parent.keys() | change.keys()):
            p, c = parent.get(name), change.get(name)
            if (p or c)["unit"] == "s" or (p and c and p["value"] == c["value"]):
                continue
            p_value = p["value"] if p else "-"
            c_value = c["value"] if c else "-"
            print(f"  {name}: {p_value} -> {c_value} {(p or c)['unit']}")
    return 1 if hashes_differ else 0


if __name__ == "__main__":
    sys.exit(main())
