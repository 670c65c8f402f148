#!/usr/bin/env python3
"""Build and run the cdpc benchmark (see perfbench/METRICS.md).

Run from the repository root:

  python3 perfbench/run.py --workload fig6-serial --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --compare base.out new.out

A run builds perfbench/ (the simulator libraries from src/ plus the
binary) with CMake in Release into $CARGO_TARGET_DIR, or .bench_build
when it is unset, then runs the binary. Its stdout passes
through: a host-fingerprint line, then the result JSON as the last
line. Exit status is the binary's; a failed build or a tree without
src/ and tests/golden/ exits 1 without printing a result.

--self-test runs table2-jobs4 once with one expected golden record
tampered and checks that exactly one operation failed.

--compare reads files holding the stdout of earlier runs and prints
each metric's median per workload and host fingerprint, side by side.
Only results with the same fingerprint are gated against each other:
a later file's median that is worse than the first file's by more
than the metric's bound in BENCHMARK.json is flagged and the exit
status is 1. Other fingerprints are shown for information.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the binary; return the build dir."""
    for need in ("src", "tests/golden"):
        if not (ROOT / need).is_dir():
            fail(f"{ROOT / need} is missing: run from a full checkout")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    (out / "scratch").mkdir(exist_ok=True)
    return out


def perfbench_cmd(out, args):
    return [str(out / "perfbench"), *args, "--root", str(ROOT),
            "--scratch", str(out / "scratch")]


def self_test(out):
    cmd = perfbench_cmd(out, ["--workload", "table2-jobs4", "--seed", "1",
                           "--seconds", "0", "--trace", "0", "--tamper"])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"self-test run exited {proc.returncode}")
    result = json.loads(lines[-1])
    ok = (result["failed"] == 1 and result["attempted"] == 90
          and result["correct"] is False)
    print(f"self-test: tampered record gave {result['failed']} failed "
          f"operation(s) of {result['attempted']}: "
          f"{'OK' if ok else 'WRONG'}")
    return 0 if ok else 1


def read_runs(path):
    """(fingerprint, workload) -> list of metric dicts from one file."""
    runs = {}
    host = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "host" in obj:
            host = obj
        elif "metrics" in obj and host is not None:
            key = (json.dumps(host["host"], sort_keys=True), host["workload"])
            runs.setdefault(key, []).append(obj["metrics"])
            host = None
    return runs


def compare(paths):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    columns = {}  # workload -> [(file index, host, runs)]
    for i, path in enumerate(paths):
        for (host, workload), runs in read_runs(path).items():
            columns.setdefault(workload, []).append((i, host, runs))
    hosts = sorted({h for cols in columns.values() for _, h, _ in cols})
    for n, host in enumerate(hosts):
        print(f"host{n}: {host}")
    regressed = 0
    for workload, cols in sorted(columns.items()):
        print(f"\n{workload}: " + "  ".join(
            f"{paths[i]}@host{hosts.index(h)}" for i, h, _ in cols))
        names = sorted({n for _, _, runs in cols for r in runs for n in r})
        for name in names:
            meds = []
            for _, _, runs in cols:
                vals = [r[name]["value"] for r in runs if name in r]
                meds.append((statistics.median(vals), len(vals)) if vals else None)
            cells = ["-" if m is None else f"{m[0]:.6g} (n={m[1]})" for m in meds]
            flag = ""
            rule = rules.get(name, {})
            base = {h: m for (i, h, _), m in zip(cols, meds) if i == 0 and m}
            for (i, h, _), m in zip(cols, meds):
                if i == 0 or m is None or "bound" not in rule or not base.get(h):
                    continue
                change = (m[0] - base[h][0]) / base[h][0]
                worse = change if rule["better"] == "lower" else -change
                if worse > rule["bound"]:
                    flag += f"  REGRESSED {paths[i]} {worse:+.1%} > {rule['bound']:.0%}"
                    regressed += 1
            print(f"  {name:26s}" + "".join(f"{c:>26s}" for c in cells) + flag)
    print("\nonly columns with the first file's host fingerprint are gated")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed")
    p.add_argument("--seconds")
    p.add_argument("--trace")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--compare", nargs="+", metavar="FILE")
    a = p.parse_args()
    if a.compare:
        return compare(a.compare)
    out = build()
    if a.self_test:
        return self_test(out)
    if None in (a.workload, a.seed, a.seconds, a.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    cmd = perfbench_cmd(out, ["--workload", a.workload, "--seed", a.seed,
                           "--seconds", a.seconds, "--trace", a.trace])
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
