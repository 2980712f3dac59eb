#!/usr/bin/env python3
"""Build and run the droplens benchmark.

    python3 perfbench/run.py --workload window|follow \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (and the repository's
libraries under it) into .bench_build at the repository root; later calls
only let the build tool confirm it is up to date. The benchmark's result is
the last line of standard output. --smoke runs every workload at a tiny
size with every correctness check on and checks that the metrics printed
are exactly the ones BENCHMARK.json names.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("window", "follow")
# Each run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then build; compiler output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "--target", "droplens_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "droplens_perfbench")


def run(binary, args):
    """Run the benchmark binary; returns (exit code, stdout text)."""
    work = os.path.join(build_dir(), "work")
    cmd = [binary] + args + ["--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {"0": [m["name"] for m in spec["end_to_end"]],
             "1": [m["name"] for m in spec["per_layer"]]}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run(binary, ["--smoke", "--workload", workload,
                                     "--seed", "7", "--seconds", "1",
                                     "--trace", trace])
            result = json.loads(out.strip().splitlines()[-1]) if out else {}
            ok = (code == 0 and result.get("correct") is True
                  and result.get("failed") == 0
                  and list(result.get("metrics", {})) == names[trace])
            print("smoke %-9s trace=%s %s" % (workload, trace,
                                              "ok" if ok else "FAILED"))
            if not ok:
                sys.stdout.write(out)
                return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)
    code, out = run(binary, ["--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", args.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
