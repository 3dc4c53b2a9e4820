"""Run one workload of the icnsim benchmark and print its metrics.

    python3 benchmark/run.py --workload link_churn --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``icnsim`` from ``src/`` there
and refuses to run against any other copy.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, measured
untraced; with ``--trace 1`` they are the per-layer ones, from a run with
spans around the calls into each icnsim module, and the spans are written to
``benchmark/out/``.  The lines before it, starting with ``#``, record the
environment, the determinism digest and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "bootstrap_s": "s",
    "bootstrap_done_ratio": "ratio",
    "data_pkts_per_s": "1/s",
    "data_delivered_ratio": "ratio",
    "link_down_p50_ms": "ms",
    "link_down_p90_ms": "ms",
    "link_up_p50_ms": "ms",
    "link_up_p90_ms": "ms",
    "probe_delivered_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_icnsim():
    """Import icnsim from this checkout's ``src/``; None when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import icnsim
    except ImportError:
        return None
    origin = os.path.realpath(icnsim.__file__)
    return icnsim if origin.startswith(os.path.realpath(SRC) + os.sep) else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_hash() -> str:
    """Hash of the sources a digest depends on: icnsim and this benchmark."""
    h = hashlib.sha256()
    for pkg in (os.path.join(SRC, "icnsim"), BENCH_DIR):
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def same_as_earlier_runs(workload: str, seed: int, trace: int, digest: str) -> bool:
    """Compare with the digest an earlier run of these sources, seed and mode recorded.

    Repeats within a run share the process's string-hash seed; this catches
    output that depends on it, or on anything else that differs between
    processes.
    """
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    key = f"{workload}:{seed}:{trace}:{source_hash()}"
    if key in known:
        return known[key] == digest
    known[key] = digest
    os.makedirs(OUT, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def result_line(measurement, correct: bool, trace: bool) -> str:
    if trace:
        metrics = {n: {"value": v, "unit": layer_unit(n)}
                   for n, v in measurement.metrics.items()}
    else:
        metrics = {n: {"value": measurement.metrics[n], "unit": END_TO_END_UNITS[n]}
                   for n in END_TO_END_UNITS}
    return json.dumps({"correct": correct, "attempted": measurement.tally.attempted,
                       "failed": measurement.tally.failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_icnsim() is None:
        print(f"icnsim not found under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import harness

    shape = harness.WORKLOADS.get(args.workload)
    if shape is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(), "cpu": cpu_model(),
           "nproc": len(os.sched_getaffinity(0)), "commit": git_commit()}
    print("# env " + json.dumps(env), flush=True)

    if args.trace:
        measurement = harness.measure_traced(args.workload, shape, args.seed, args.seconds)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, **measurement.tracer.dump()}, fh)
        measurement.samples["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        measurement = harness.measure(args.workload, shape, args.seed, args.seconds)
        measurement.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    correct = (measurement.consistent
               and same_as_earlier_runs(args.workload, args.seed, args.trace,
                                        measurement.digest))
    info = {"digest": measurement.digest, "deterministic": correct,
            "failed_share": measurement.tally.failed / max(measurement.tally.attempted, 1),
            **measurement.samples}
    print("# info " + json.dumps(info))
    print(result_line(measurement, correct, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
