"""Record golden.json: output digests and exact counters of every workload.

Run it only on a commit whose outputs are known to be right, and commit the
result with the benchmark:

    python3 perfbench/golden.py

It refuses to record when a structural check fails or when the traced pass
disagrees with the untraced one.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from passrun import GOLDEN, import_package, trace_counters, vertex_digests  # noqa: E402


def record(name, w):
    from tracing import Tracer
    from workloads import sha256
    p = w.params()
    plain = w.run(p, 0)
    tr = Tracer()
    traced = w.run_traced(p, 0, tr)
    errors = plain.errors + w.check(p, traced)
    if name == "vertex_queries":
        digest, prefixes = vertex_digests(plain)
        if vertex_digests(traced)[0] != digest:
            errors.append("traced outputs differ from untraced")
        entry = {"sha256": digest, "lists_sha256": w.lists_digest(plain),
                 "requests": prefixes}
    else:
        digest = sha256(plain.outputs[0][1])
        if sha256(traced.outputs[0][1]) != digest:
            errors.append("traced output differs from untraced")
        entry = {"sha256": digest}
    if errors:
        raise SystemExit(f"{name}: not recorded: {errors[:5]}")
    entry["counters"] = trace_counters(tr, traced)
    return entry


def main():
    import_package()
    from workloads import WORKLOADS
    golden = {name: record(name, w) for name, w in WORKLOADS.items()}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, entry in golden.items():
        print(name, entry["counters"])


if __name__ == "__main__":
    main()
