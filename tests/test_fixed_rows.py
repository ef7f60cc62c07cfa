"""The benchmark's fixed-set rows at seed 1 are pinned.

The workloads, their fixed-set sizes, the specs and the per-realization
config seeds come from ``perfbench/bench.py`` itself, so this test and
the benchmark cannot drift apart.  A row is digested with every time
field (a name ending in ``_ms``) zeroed: the sha256 of ``repr(rows)``,
first 16 hex digits, one digest per workload.  A change that moves any
other row field fails here; declare its new digests with the change.
"""

import dataclasses
import hashlib
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
DIGESTS = {
    "sweep-paper": "c9a99e0959053f67",
    "refine-paper": "703c997f24b55903",
    "paths-8x8": "5f77bbe549ad8438",
}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("bench")
    finally:
        sys.path.remove(str(PERFBENCH))


def rows_digest(bench, workload) -> str:
    rows = []
    for index in range(workload.fixed_set):
        spec = bench.make_spec(workload, bench.realization_seed(SEED, index))
        _, row = bench.run_once(spec)
        rows.append(dataclasses.replace(row, **{
            f.name: 0.0 for f in dataclasses.fields(row)
            if f.name.endswith("_ms")}))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def test_fixed_set_rows_pinned(bench):
    assert set(bench.WORKLOADS) == set(DIGESTS)
    got = {name: rows_digest(bench, workload)
           for name, workload in bench.WORKLOADS.items()}
    assert got == DIGESTS
