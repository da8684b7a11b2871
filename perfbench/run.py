#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench from the checkout and runs one
workload (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints progress on stderr and, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of one untraced run.  --trace 1 runs the workload twice,
untraced and traced, for half the seconds each, checks that every modeled
value and sample digest is bit-identical between the two, and reports the
per-layer metrics of the traced run plus its tracing overhead; the spans go to
.bench_out/spans-<workload>-<seed>.json.  Exits 1, naming the workload and
the check, when a correctness check fails, and without a result line when
the program cannot be built or run.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), *gen,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def run_once(exe, workload, seed, seconds, trace, spans=None):
    """One perfbench process; returns (exit code, parsed report)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", str(spans)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: perfbench exited {p.returncode} "
                           "without a report")
    return p.returncode, json.loads(lines[-1])


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    e2e_units, layer_units = declared_metrics()
    try:
        exe = build()
        # A traced run is two runs; together they take --seconds.
        seconds = max(1, a.seconds // 2) if a.trace else a.seconds
        code, base = run_once(exe, a.workload, a.seed, seconds, False)
        report, checks = base, list(base["checks"])
        if a.trace:
            spans = ROOT / ".bench_out" / f"spans-{a.workload}-{a.seed}.json"
            code_t, report = run_once(exe, a.workload, a.seed, seconds,
                                      True, spans)
            code = code or code_t
            checks += report["checks"]
            moved = sorted(k for k in set(base["modeled"]) | set(report["modeled"])
                           if base["modeled"].get(k) != report["modeled"].get(k))
            if moved:
                checks.append(f"{a.workload}: modeled values differ between "
                              f"the traced and untraced runs: {', '.join(moved)}")
            # Host seconds per operation, traced over untraced.
            overhead = ((report["timed_s"] / report["timed_ops"])
                        / (base["timed_s"] / base["timed_ops"]) - 1.0)
            report["metrics"]["harness.trace_overhead_frac"] = {
                "value": overhead, "unit": "frac"}
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError, KeyError) as e:
        log(f"{a.workload}: {e}")
        return 1

    metrics = report["metrics"]
    want = layer_units if a.trace else e2e_units
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        checks.append(f"{a.workload}: reported metrics do not match "
                      f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    if code != 0 and not checks:
        checks.append(f"{a.workload}: perfbench exited {code}")
    for c in checks:
        log(f"check failed: {c}")
    print(json.dumps({"correct": not checks,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
