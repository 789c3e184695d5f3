"""One pass of one workload in a fresh interpreter; prints one JSON line.

run.py starts this once per pass, so module-level caches in the package
start cold in every pass, as they do for a command-line user:

    python3 -s perfbench/passrun.py WORKLOAD SEED MODE CHECK

MODE is "setup" (import and build parameters only), "pass" (untraced) or
"trace" (traced replay).  CHECK is 1 to run the structural checks after the
timed part.  Output is compared with golden.json beside this file.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "golden.json")
DIGEST_PREFIX = 16          # hex digits kept per vertex_queries request
LATENCY_SPANS = ("crystal.bijection", "crystal.bijection_inverse", "symbols.a_value",
                 "aseq.a_seq")
COUNTED_SPANS = {"fock.f_divided_calls": "fock.f_divided",
                 "symbols.a_value_calls": "symbols.a_value"}
REFERENCE_S = 0.015         # calibration kernel time that scale 1 stands for
CALIBRATION_RUNS = 5


def import_package():
    """Import the package from this checkout's src; seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import ariki
    import ariki.render  # noqa: F401  (the CLI's renderers are part of set-up)
    took = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(ariki.__file__))) != SRC:
        raise SystemExit(f"imported ariki from {ariki.__file__}, not from {SRC}")
    return took


def calibrate():
    """Seconds taken by a fixed kernel of the dict, tuple, str and sort work
    that the package spends its time in."""
    t0 = time.perf_counter()
    for _ in range(4):  # small tables keep the kernel's share of peak memory small
        table = {}
        for i in range(5000):
            table[(i, i % 7, i * i % 13)] = (i, str(i))
        sorted(table, key=lambda k: (k[2], -k[0]))
    return time.perf_counter() - t0


def machine_scale():
    """REFERENCE_S over the median kernel time, measured now in this process.

    Times measured here, multiplied by it, are times at the speed at which
    the kernel takes REFERENCE_S.  The machine's slow spells slow the kernel
    too, so the product moves far less than raw times do.
    """
    import statistics
    return REFERENCE_S / statistics.median(calibrate() for _ in range(CALIBRATION_RUNS))


def output_bytes(o):
    return sum(len(out.encode()) for _, out in o.outputs if out is not None)


def vertex_digests(o):
    """Aggregate digest over all outputs, and the per-request digest prefixes."""
    from workloads import KINDS, sha256
    import hashlib
    whole = hashlib.sha256()
    prefixes = {kind: [] for kind in KINDS}
    for (kind, i), out in sorted(o.outputs, key=lambda r: (KINDS.index(r[0][0]), r[0][1])):
        text = "<failed>\n" if out is None else out
        whole.update(text.encode())
        prefixes[kind].append(None if out is None else sha256(out)[:DIGEST_PREFIX])
    return whole.hexdigest(), prefixes


def trace_counters(tr, o):
    counts = dict(tr.counts)
    for metric, span in COUNTED_SPANS.items():
        counts[metric] = len(tr.durations(span))
    counts["render.bytes"] = output_bytes(o)
    counts["trace.spans"] = len(tr.spans)
    return counts


def verify(name, w, p, o, golden, check):
    """(attempted, failed, digest, errors): golden digests plus, when check is
    set, the structural checks that do not rely on the digests."""
    from workloads import sha256
    errors = list(o.errors)
    if name == "vertex_queries":
        expected = golden["requests"]
        attempted = sum(len(v) for v in expected.values())
        if not o.outputs:
            return attempted, attempted, None, errors
        digest, prefixes = vertex_digests(o)
        lists_ok = w.lists_digest(o) == golden["lists_sha256"]
        if not lists_ok:
            errors.append("vertex lists differ from golden")
        failed = 0
        for kind, got in prefixes.items():
            want = expected[kind]
            failed += abs(len(got) - len(want))
            failed += sum(1 for a, b in zip(got, want) if not lists_ok or a != b)
        if failed:
            errors.append(f"{failed} request outputs differ from golden")
        if check:
            structural = w.check(p, o)
            failed += len(structural)
            errors += structural
        return attempted, min(failed, attempted), digest, errors
    text = o.outputs[0][1]
    if text is None:
        return 1, 1, None, errors
    digest = sha256(text)
    if digest != golden["sha256"]:
        errors.append("output differs from golden")
    if check:
        errors += w.check(p, o)
    return 1, 1 if errors else 0, digest, errors


def main(argv):
    name, seed, mode, check = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    import_s = import_package()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    w = WORKLOADS[name]
    t0 = time.perf_counter()
    p = w.params()
    setup_s = import_s + time.perf_counter() - t0
    scale = machine_scale()  # before the pass, so its heap cannot slow the kernel
    if mode == "setup":
        return {"setup_s": setup_s, "scale": scale}

    import json
    import resource
    from tracing import Tracer, with_self_times

    tr = Tracer() if mode == "trace" else None
    o = w.run_traced(p, seed, tr) if tr else w.run(p, seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(GOLDEN) as fh:
        golden = json.load(fh)[name]
    attempted, failed, digest, errors = verify(name, w, p, o, golden, check)
    texts = [out for _, out in o.outputs if out is not None]
    items = len(texts) if name == "vertex_queries" else (w.items(texts[0]) if texts else 0)
    counts = trace_counters(tr, o) if tr else {"render.bytes": output_bytes(o)}
    counter_errors = [f"{k} = {v}, golden {golden['counters'].get(k)}"
                      for k, v in sorted(counts.items())
                      if golden["counters"].get(k) != v]
    result = {"setup_s": setup_s, "scale": scale,
              "wall_s": o.wall_s, "cpu_s": o.cpu_s, "rss_mb": rss_mb,
              "attempted": attempted, "failed": failed, "digest": digest,
              "items": items, "errors": errors[:5], "counter_errors": counter_errors,
              "latency_ns": o.latency_ns, "counts": counts}
    if tr:
        from workloads import derived_ns
        names = {s[1] for s in tr.spans}
        result.update({
            "span_ns": {n: sum(tr.durations(n)) for n in names},
            "derived_ns": derived_ns(tr),
            "latency": {n: tr.durations(n) for n in LATENCY_SPANS},
            "replay_ns": tr.total_ns(w.replay),
            "spans": with_self_times(tr.spans),
        })
    return result


if __name__ == "__main__":
    import json
    print(json.dumps(main(sys.argv[1:])))
