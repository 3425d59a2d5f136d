#!/usr/bin/env python3
"""Build and run the Rocket end-to-end benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the benchmark, library sources
included, into .bench_build/perfbench (several minutes); later runs only
rebuild what changed. Build output goes to stderr. The benchmark's stdout
is passed through after its last line is checked against BENCHMARK.json:
with --trace 0 it must carry every end_to_end metric, with --trace 1 every
per_layer metric, each with its declared unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rocket_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when run from a git checkout, else a digest of src/."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def check_result(line, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result keys {sorted(result)}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if out.returncode != 0:
        fail(f"benchmark exited with code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    check_result(lines[-1], args.trace == 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
