"""Where the acceptance benchmarks write their measurements.

A pytest run merges each test's measurements into
``.benchmarks/BENCH_<n>.json`` (gitignored; CI uploads it as the
``bench-ratios`` artifact), so running a benchmark never dirties the
checkout.  The committed ``BENCH_<n>.json`` at the repo root, which
``docs/benchmarks/trajectory.md`` renders, changes only through the
benchmark's regenerate command, e.g.::

    PYTHONPATH=src python benchmarks/bench_structural.py --regenerate

It runs the module's tests afresh, copies their measurements over the
root file and rewrites the trajectory page; commit both with the change
that moved the numbers.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".benchmarks"


def update(name: str, section: dict) -> None:
    """Merge one test's measurements into ``.benchmarks/<name>``."""
    path = OUT_DIR / name
    payload: dict = json.loads(path.read_text()) if path.exists() else {}
    payload.update(section)
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def regenerate(argv: list[str], name: str, test_file: str) -> int:
    """A benchmark module's ``__main__``: with ``--regenerate``, run its
    tests into a fresh ``.benchmarks/<name>``, copy that over the root
    ``<name>`` and rewrite the trajectory page."""
    import pytest

    from generate_report import write_trajectory

    if "--regenerate" not in argv:
        print(__doc__)
        return 2
    out = OUT_DIR / name
    out.unlink(missing_ok=True)
    code = pytest.main([test_file, "-q", "-s", "-p", "no:cacheprovider"])
    if code != 0:
        return int(code)
    shutil.copyfile(out, ROOT / name)
    print(f"wrote {ROOT / name} and {write_trajectory()}")
    return 0
