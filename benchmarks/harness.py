"""Shared helper for the benchmarks that keep a tracked ``BENCH_*.json``
baseline at the repository root.

A plain test run only asserts; it leaves the checked-in baselines
alone.  Refresh one (after an intentional performance change, on a
quiet machine) with ``REPRO_UPDATE_BENCH=1``, like the golden files'
``REPRO_UPDATE_GOLDENS=1``::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src python -m pytest benchmarks/test_query_cold.py -q

and commit the updated JSON.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def record_result(path: Path, name: str, entry: dict) -> None:
    """Merge one benchmark result into the baseline file at ``path`` —
    only when ``REPRO_UPDATE_BENCH`` is set."""
    if not os.environ.get("REPRO_UPDATE_BENCH"):
        return
    results: dict[str, object] = {}
    if path.exists():
        try:
            results = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            results = {}
    results[name] = entry
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
