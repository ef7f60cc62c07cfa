"""The benchmark's fixed-set rows at seeds 1-3 are pinned.

The workloads, their fixed-set sizes, the specs and the per-realization
config seeds come from ``perfbench/bench.py`` itself, so this test and
the benchmark cannot drift apart.  A row is digested with every time
field (a name ending in ``_ms``) zeroed: the sha256 of ``repr(rows)``,
first 16 hex digits, one digest per seed and workload.  A change that moves any
other row field fails here; declare its new digests with the change.
``python tests/test_fixed_rows.py`` prints the current digests.
"""

import dataclasses
import hashlib
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = {
    1: {"sweep-paper": "c9a99e0959053f67",
        "refine-paper": "36897318e2f54a9e",
        "paths-8x8": "5f77bbe549ad8438"},
    2: {"sweep-paper": "750bb7b2f3e6888c",
        "refine-paper": "62e1faa9e8ea111a",
        "paths-8x8": "ce112e8edf234bdc"},
    3: {"sweep-paper": "aa2d1b17b2f82f9e",
        "refine-paper": "c323746fb0da1074",
        "paths-8x8": "6b4ae4a2c56864a0"},
}


def load_bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("bench")
    finally:
        sys.path.remove(str(PERFBENCH))


def rows_digest(bench, seed, workload) -> str:
    rows = []
    for index in range(workload.fixed_set):
        spec = bench.make_spec(workload, bench.realization_seed(seed, index))
        _, row = bench.run_once(spec)
        rows.append(dataclasses.replace(row, **{
            f.name: 0.0 for f in dataclasses.fields(row)
            if f.name.endswith("_ms")}))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def digests(bench) -> dict:
    return {seed: {name: rows_digest(bench, seed, workload)
                   for name, workload in bench.WORKLOADS.items()}
            for seed in DIGESTS}


def test_fixed_set_rows_pinned():
    assert digests(load_bench()) == DIGESTS


if __name__ == "__main__":
    # print the current digests, one line per seed and workload
    for seed, row in digests(load_bench()).items():
        for name, digest in row.items():
            print(seed, name, digest)
