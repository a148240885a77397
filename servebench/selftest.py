#!/usr/bin/env python3
"""Crash-accounting self-test of the serving benchmark.

    python3 servebench/selftest.py

Runs short untraced and traced runs that SIGKILL the server halfway
through a phase (`--inject-kill`), and checks that the run still
finishes with every metric BENCHMARK.json names, that the requests lost
to the crash lower ok_frac and count as failed, and that the restart is
counted. Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, kill):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "5", "--trace", str(trace),
           "--inject-kill", kill]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s" % (" ".join(cmd), proc.returncode,
                                             proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check(ok, what):
    print("%s: %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    lines, result = run("lenet-lastconv-tcp", 0, "high:0.5")
    high = next(l for l in lines if l.startswith("phase high"))
    metrics = result["metrics"]
    check(set(metrics) == end_to_end, "untraced run reports every end-to-end metric")
    check(all(m["value"] > 0 for m in metrics.values()),
          "every end-to-end metric is measured (non-zero)")
    check(result["failed"] > 0, "requests lost to the kill count as failed (%d)"
          % result["failed"])
    check(metrics["ok_frac"]["value"] < 1.0,
          "ok_frac drops below 1 (%.5f)" % metrics["ok_frac"]["value"])
    check(re.search(r"restarts=1\b", high) is not None,
          "the high phase counts one server restart")
    check(result["correct"], "every answered request still checks bit for bit")

    lines, result = run("svhn-conv3-tcp", 1, "high:0.5")
    metrics = result["metrics"]
    check(set(metrics) == per_layer, "traced run reports every per-layer metric")
    check(metrics["server.restarts"]["value"] >= 1,
          "server.restarts counts the kill (%g)" % metrics["server.restarts"]["value"])
    check(result["failed"] > 0, "traced run counts the lost requests (%d)"
          % result["failed"])
    print("self-test passed")


if __name__ == "__main__":
    main()
