"""Benchmark of the ariki package: closed loop, one client, no threads.

    python3 perfbench/run.py --workload decomp_e4 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(passrun.py), so the package's module-level caches start cold, as they do
for a command-line user.  Passes alternate between two PYTHONHASHSEED values
drawn from --seed and must produce identical output bytes.  Passes are
started until --seconds have gone by, and always at least two of each kind.
Every time is scaled to a reference machine speed, which each process
measures just before its pass (passrun.machine_scale), and reported as a
median over the run's samples.

With --trace 0 the end-to-end metrics are measured; with --trace 1 untraced
and traced passes alternate and the per-layer metrics are reported.  A
summary goes to standard output, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  Every pass record,
and with --trace 1 every span, is written to .bench_out/ in the checkout.
The exit code is 0 when the outputs are correct, 1 when they are not and 2
when the checkout has no package to measure.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from passrun import LATENCY_SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
PASSRUN = os.path.join(HERE, "passrun.py")
WORKLOADS = ("decomp_e4", "canonical_e2", "vertex_queries", "typeb_odd")
SETUP_SAMPLES = 9       # set-up-only interpreters per run, besides every pass
CHILD_TIMEOUT = 150     # seconds; a pass that takes longer counts as failed
LAST_START = 120        # seconds; no pass starts later, whatever --seconds says

# spans whose summed duration per pass is the per-layer metric <span>_s
TIMED_SPANS = ("fock.f_divided", "canonical.basis", "crystal.flotw_labels",
               "crystal.bijection_inverse", "crystal.kleshchev", "symbols.a_value",
               "aseq.a_seq", "typeb.factors", "typeb.matrix", "render.format",
               "partitions.enumerate")
LAYER_COUNTS = ("fock.f_divided_calls", "fock.terms_out", "fock.A_terms",
                "canonical.basis_terms", "crystal.labels", "crystal.kleshchev_labels",
                "symbols.a_value_calls", "aseq.blocks", "typeb.entries", "typeb.nonzero",
                "render.bytes", "partitions.multipartitions", "laurent.monomials",
                "laurent.max_abs_coeff", "laurent.max_degree", "trace.spans")
DERIVED = {
    "canonical.straighten_s": "canonical.basis_s minus the replayed layers it contains",
    "typeb.assemble_s": "typeb.matrix_s minus typeb.factors_s",
    "canonical.kept_ratio": "canonical.basis_terms / fock.A_terms",
    "trace.overhead_pct": "100 * (median traced wall - replay) / median untraced wall - 100",
}


def child(workload, seed, mode, check, hash_seed):
    """Run one pass in a fresh interpreter: (record, None) or (None, error)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with cached bytecode
    cmd = [sys.executable, "-s", PASSRUN, workload, str(seed), mode, "1" if check else "0"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, f"{mode} pass exceeded {CHILD_TIMEOUT} s"
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    record = json.loads(proc.stdout.splitlines()[-1])
    record.update(mode=mode, hash_seed=hash_seed, checked=check,
                  elapsed_s=time.monotonic() - started)
    return record, None


def quantile(values, q):
    """The q-th percentile (1..99); the only value when there is one."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(args, hash_seeds):
    """Closed loop: start passes until --seconds have gone by."""
    modes = ("pass", "trace") if args.trace else ("pass",)
    passes, problems, checked = [], [], set()
    last = {}
    start = time.monotonic()
    k = 0
    while True:
        mode = modes[k % len(modes)]
        hash_seed = hash_seeds[(k // len(modes)) % 2]
        elapsed = time.monotonic() - start
        enough = all(sum(1 for r in passes if r["mode"] == m) >= 2 for m in modes)
        if enough and (elapsed + last.get(mode, 0) > args.seconds or elapsed > LAST_START):
            break
        check = (mode, hash_seed) not in checked
        checked.add((mode, hash_seed))
        record, error = child(args.workload, args.seed, mode, check, hash_seed)
        if record is None:
            problems.append(error)
            record = {"mode": mode, "hash_seed": hash_seed, "failed": None}
        else:
            last[mode] = record["elapsed_s"]
        passes.append(record)
        k += 1
        if record["failed"] is None and len(problems) >= 3:
            break
    return passes, problems


def end_to_end(setups, passes):
    """End-to-end metrics: medians of times at the reference speed."""
    med = statistics.median
    # every pass makes the same requests in the same order, so request i of
    # one pass is request i of every other; a batch pass is one request
    per_request = [med(ns) / 1e6 for ns in zip(*(
        [ns * r["scale"] for ns in r["latency_ns"]] for r in passes))]
    values = {
        "setup_s": (med(r["setup_s"] * r["scale"] for r in setups), "s"),
        "wall_s": (med(r["wall_s"] * r["scale"] for r in passes), "s"),
        "cpu_s": (med(r["cpu_s"] * r["scale"] for r in passes), "s"),
        "items_per_s": (med(r["items"] / (r["wall_s"] * r["scale"]) for r in passes), "1/s"),
        "req_p50_ms": (quantile(per_request, 50), "ms"),
        "req_p99_ms": (quantile(per_request, 99), "ms"),
        "peak_rss_mb": (med(r["rss_mb"] for r in passes), "MB"),
    }
    samples = {"setup_s": len(setups), "passes": len(passes),
               "requests per pass": len(per_request),
               "unscaled wall_s quartiles": [round(quantile([r["wall_s"] for r in passes], q), 4)
                                             for q in (25, 50, 75)]}
    return values, samples


def per_layer(plain, traced):
    """Per-layer metrics, at the reference speed like the end-to-end ones.
    A layer's time is its summed spans in one pass, median over the traced
    passes; they make the same calls in the same order, so each call's
    latency is its median over them, and percentiles are taken over calls."""
    med = statistics.median
    values = {}
    for span in TIMED_SPANS:
        values[f"{span}_s"] = (
            med(r["span_ns"].get(span, 0) * r["scale"] for r in traced) / 1e9, "s")
    for span in LATENCY_SPANS:
        per_call = [med(ns) / 1e6 for ns in zip(*(
            [ns * r["scale"] for ns in r["latency"][span]] for r in traced))]
        for q in (50, 99):
            values[f"{span}_p{q}_ms"] = (quantile(per_call, q), "ms")
    counts = traced[0]["counts"]
    for metric in LAYER_COUNTS:
        values[metric] = (counts.get(metric, 0), "count")
    for metric, name in (("canonical.straighten_s", "canonical.straighten"),
                         ("typeb.assemble_s", "typeb.assemble")):
        values[metric] = (
            med(r["derived_ns"].get(name, 0) * r["scale"] for r in traced) / 1e9, "s")
    a_terms = counts.get("fock.A_terms", 0)
    values["canonical.kept_ratio"] = (
        counts.get("canonical.basis_terms", 0) / a_terms if a_terms else 0.0, "ratio")
    untraced = med(r["wall_s"] * r["scale"] for r in plain)
    traced_net = med((r["wall_s"] - r["replay_ns"] / 1e9) * r["scale"] for r in traced)
    values["trace.wall_s"] = (med(r["wall_s"] * r["scale"] for r in traced), "s")
    values["trace.replay_s"] = (med(r["replay_ns"] * r["scale"] for r in traced) / 1e9, "s")
    values["trace.untraced_wall_s"] = (untraced, "s")
    values["trace.overhead_pct"] = (100 * (traced_net / untraced - 1), "%")
    return values


def write_out(name, payload):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return os.path.relpath(path, ROOT)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ariki", "__init__.py")):
        print(f"no package to measure: {ROOT}/src/ariki is missing", file=sys.stderr)
        return 2

    hash_seeds = random.Random(args.seed).sample(range(1, 2 ** 32), 2)
    warm, error = child(args.workload, args.seed, "setup", False, hash_seeds[0])
    if warm is None:  # the package does not even import: nothing to measure
        print(error, file=sys.stderr)
        return 1
    setups = []
    for i in range(SETUP_SAMPLES):
        record, error = child(args.workload, args.seed, "setup", False, hash_seeds[i % 2])
        if record:
            setups.append(record)
    passes, problems = run_passes(args, hash_seeds)
    done = [r for r in passes if r["failed"] is not None]
    plain = [r for r in done if r["mode"] == "pass"]
    traced = [r for r in done if r["mode"] == "trace"]
    setups += done

    attempted = sum(r["attempted"] for r in done) + len(passes) - len(done)
    failed = sum(r["failed"] for r in done) + len(passes) - len(done)
    for r in done:
        problems += [f"{r['mode']} pass, PYTHONHASHSEED={r['hash_seed']}: {e}"
                     for e in r["errors"] + r["counter_errors"]]
    digests = {(r["hash_seed"], r["mode"], r["digest"]) for r in done}
    if len({d for _, _, d in digests}) > 1:
        problems.append(f"output digests differ across hash seeds or modes: {sorted(digests)}")
    if {r["hash_seed"] for r in plain} != set(hash_seeds) or (
            args.trace and {r["hash_seed"] for r in traced} != set(hash_seeds)):
        problems.append("some hash seed has no completed pass")
    correct = not problems and failed == 0

    if args.trace:
        values = per_layer(plain, traced) if plain and traced else {}
        samples = {"traced passes": len(traced), "untraced passes": len(plain)}
    else:
        values, samples = end_to_end(setups, plain) if plain else ({}, {})
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = {f"{r['hash_seed']}:{i}": r.pop("spans") for i, r in enumerate(traced)}
    for r in done:
        r.pop("latency_ns", None)
        r.pop("latency", None)
    written = [write_out(f"run-{tag}.json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "hash_seeds": hash_seeds, "samples": samples, "derived": DERIVED,
        "metrics": metrics, "problems": problems, "passes": passes})]
    if spans:
        written.append(write_out(f"spans-{tag}.json", {
            "fields": ["id", "name", "parent", "request", "start_ns", "end_ns", "self_ns"],
            "passes": spans}))

    print(f"{args.workload} seed {args.seed}: PYTHONHASHSEED {hash_seeds}, {samples}")
    print(f"  requests: {attempted} attempted, {failed} failed, "
          f"fail_frac {failed / attempted if attempted else 1:.6g}")
    for k, m in metrics.items():
        mark = "  (derived)" if k in DERIVED else ""
        print(f"  {k:32} {m['value']:>14.6g} {m['unit']}{mark}")
    for p in problems[:20]:
        print(f"  PROBLEM: {p}")
    print(f"  records: {', '.join(written)}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
