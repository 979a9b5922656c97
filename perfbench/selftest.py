"""Self-test of the end-to-end benchmark.

Runs every workload of ``BENCHMARK.json`` at tiny sizes, untraced and
traced, each in a fresh process, and asserts that

- the command exits 0 and its output checks pass (``correct``, no
  ``failed`` answers);
- the last stdout line carries exactly the metrics ``BENCHMARK.json``
  names for that mode, each with its unit;
- the traced run wrote its Chrome trace and self-time table.

Run from the root of a checkout (takes about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {sorted(set(got) ^ set(want))}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], float), (name, metric)
            if trace:
                stem = ROOT / ".perfbench" / "traces" / f"{workload}-seed{SEED}"
                events = json.loads(stem.with_suffix(".json").read_text())["traceEvents"]
                assert events and all(e["ph"] == "X" for e in events)
                assert json.loads(Path(f"{stem}-selftime.json").read_text())["tables"]
            print(f"ok  {workload:<14} trace={trace}  {len(result['metrics'])} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
