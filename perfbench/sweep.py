"""One-shot sweep over the baseline grid of the roadmap; not a gate.

    python3 perfbench/sweep.py

For each grid point it builds decomposition_matrix once, in one process,
and prints the number of labels (matrix columns) and the wall time.  The
label counts must match the baseline table exactly; the times are single
runs on a noisy machine and are only reported.  The whole sweep takes
about a minute on two cores.  Exits 1 when a label count differs.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from passrun import import_package  # noqa: E402

# (d, e, charges), n, labels in the baseline table
GRID = (
    ((2, 4, (0, 1)), 12, 390),
    ((2, 4, (0, 1)), 16, 1458),
    ((2, 2, (0, 1)), 14, 112),
    ((3, 3, (0, 1, 2)), 12, 732),
    ((1, 2, (0,)), 19, 54),
)


def main():
    import_package()
    from ariki import ChargeParams, decomposition_matrix
    rows, ok = [], True
    print(f"{'params':>16} {'n':>3} {'labels':>7} {'expected':>8} {'wall_s':>8}")
    for (d, e, v), n, expected in GRID:
        p = ChargeParams(d, e, v)
        t0 = time.perf_counter()
        labels = len(decomposition_matrix(p, n).columns)
        wall = time.perf_counter() - t0
        ok &= labels == expected
        print(f"{str((d, e, v)):>16} {n:>3} {labels:>7} {expected:>8} {wall:>8.2f}",
              flush=True)
        rows.append({"d": d, "e": e, "v": list(v), "n": n, "labels": labels,
                     "expected": expected, "wall_s": wall})
    print(json.dumps({"labels_match": ok, "grid": rows}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
