#!/usr/bin/env python3
"""Scheduler benchmark entry point; see perfbench/README.md.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the paraconv library from
src/ plus the measuring program) into $CARGO_TARGET_DIR or .bench_build,
runs workload W, prints every metric with its unit and the environment,
and ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits 1 when an output check fails, 2 when it cannot run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("table1_ablation", "zoo_batch", "table1_pe4096")
# A run must end within 180 s, and the first run, which builds, within 900 s;
# leave room for this script's own work.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 700.0
BUILD_NOTE = ("default RelWithDebInfo build: the Release build type does not "
              "compile on GCC 12 (-Werror=restrict false positive)")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def build_step(command, deadline):
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired as error:
        raise BenchError("build timed out") from error
    if done.returncode != 0:
        raise BenchError("build failed: " + " ".join(command))


def build(root, deadline):
    """Configures and builds perfbench; returns the binary's path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no paraconv sources (src/CMakeLists.txt) under " +
                         str(root))
    if shutil.which("cmake") is None:
        raise BenchError("cmake is not on PATH")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    source = root / "perfbench"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    if not cache.is_file():
        build_step(["cmake", "-S", str(source), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], deadline)
    build_step(["cmake", "--build", str(build_dir), "-j", jobs], deadline)
    return build_dir / "perfbench"


def run_program(binary, mode, args, deadline):
    """Runs one perfbench mode; returns its result object."""
    command = [str(binary), mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, check=False,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"perfbench {mode} ran out of time") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"perfbench {mode} exited {done.returncode}")
    result = json.loads(lines[-1])
    if (done.returncode == 0) != result["correct"]:
        raise BenchError(f"perfbench {mode}: exit code contradicts its result")
    return result


def result_line(result, wanted):
    """The last stdout line: exactly the declared metrics, value and unit."""
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise BenchError("perfbench did not report " + spec["name"])
        if got["unit"] != spec["unit"]:
            raise BenchError(f"{spec['name']}: unit {got['unit']} is not "
                             f"the declared {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def git_commit(root):
    """The commit of `root` when it is itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(root, args, result):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "graph_seeds": result.get("graph_seeds", {}),
        "graph_seed_note": ("zoo_batch lowering is deterministic and takes "
                            "no seed" if args.workload == "zoo_batch" else
                            "Table-1 generator seed per graph; seed 0 is the "
                            "published set"),
        "build_type": result["build_type"],
        "build_note": BUILD_NOTE,
        "compiler": result["compiler"],
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "trace": args.trace,
        "seconds": args.seconds,
    }


def main(argv):
    args = parse_args(argv)
    root = Path.cwd().resolve()
    deadline = time.monotonic() + BUILD_LIMIT_S
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        binary = build(root, deadline)
        deadline = time.monotonic() + RUN_LIMIT_S
        mode, wanted = (("trace", spec["per_layer"]) if args.trace else
                        ("measure", spec["end_to_end"]))
        result = run_program(binary, mode, args, deadline)
        line = result_line(result, wanted)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    env = environment(root, args, result)
    env["samples"] = {name: metric["samples"]
                      for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"n={metric['samples']}")
    for error in result["errors"]:
        print("CHECK FAILED: " + error)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
