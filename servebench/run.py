#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the repository's library,
`shredder_serve` and the benchmark driver into `.bench_build/` (the first
run of a fresh checkout compiles everything), then runs one benchmark run
of one workload; the driver's last stdout line is the JSON result.
Extra arguments (such as `--inject-kill high:0.5`) pass through to the
driver. Run files (bundles, logs, spans) go under `.bench_work/`.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")


def build():
    """Configure and build; exits non-zero (printing no result) on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "shredder_serve", "servebench_driver"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=env, cwd=ROOT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("servebench: build failed (see %s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    build()
    driver = os.path.join(BUILD, "servebench_driver")
    serve = os.path.join(BUILD, "tools", "shredder_serve")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", serve, "--work", WORK] + extra
    sys.stdout.flush()
    # The driver reaps every process it starts; its exit code is ours.
    sys.exit(subprocess.call(cmd, cwd=ROOT))


if __name__ == "__main__":
    main()
