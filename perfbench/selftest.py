#!/usr/bin/env python3
"""Self-test of the perfbench harness on tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs the benchmark binary with --tiny
under two seeds, untraced and traced, and checks that:
  * each run passes its output checks and prints the result line last;
  * the untraced run emits exactly the declared end-to-end metrics, the
    traced run exactly the declared per-layer metrics, each with its
    declared unit, a finite value and a name made of [A-Za-z0-9_.-];
  * end-to-end values are non-zero;
  * the traced and untraced runs print the same digest;
  * a second seed changes the digest, and leaves latency_sweep's
    digest_apps line (the Fig. 10 applications) unchanged.
Exits 0 when every check holds.
"""

import json
import math
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point: build + run)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def digest_of(stdout, tag="digest"):
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return line.split()[1]
    return None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    binary = run.build()
    problems = []
    apps_digests = []
    for workload in [w["name"] for w in bench["workloads"]]:
        digests = {}
        for seed in (1, 2):
            for trace in ("0", "1"):
                tag = "%s seed %d trace %s" % (workload, seed, trace)
                code, out = run.run_binary(
                    binary, ["--workload", workload, "--seed", str(seed),
                             "--seconds", "0.01", "--trace", trace, "--tiny"],
                    capture=True)
                if code != 0 or not out:
                    problems.append("%s: exit %d" % (tag, code))
                    continue
                result = json.loads(out.strip().splitlines()[-1])
                keys = {"correct", "attempted", "failed", "metrics"}
                if set(result) != keys:
                    problems.append("%s: result keys %s" %
                                    (tag, sorted(result)))
                if result.get("correct") is not True or result.get("failed"):
                    problems.append("%s: not correct" % tag)
                metrics = result.get("metrics", {})
                if set(metrics) != set(declared[trace]):
                    problems.append("%s: metrics differ from BENCHMARK.json: "
                                    "%s" % (tag, sorted(set(metrics) ^
                                                        set(declared[trace]))))
                for name, m in metrics.items():
                    value = m.get("value")
                    if not NAME.match(name):
                        problems.append("%s: bad metric name %r" % (tag, name))
                    if m.get("unit") != declared[trace].get(name):
                        problems.append("%s: %s has unit %r" %
                                        (tag, name, m.get("unit")))
                    if not isinstance(value, (int, float)) or \
                            not math.isfinite(value):
                        problems.append("%s: %s = %r" % (tag, name, value))
                    elif trace == "0" and value == 0:
                        problems.append("%s: %s is 0" % (tag, name))
                digests[(seed, trace)] = digest_of(out)
                if workload == "latency_sweep" and trace == "0":
                    apps_digests.append(digest_of(out, "digest_apps"))
        if len(digests) == 4:
            for seed in (1, 2):
                if digests[(seed, "0")] != digests[(seed, "1")]:
                    problems.append("%s seed %d: traced digest differs" %
                                    (workload, seed))
            if digests[(1, "0")] == digests[(2, "0")]:
                problems.append("%s: a second seed left the digest unchanged" %
                                workload)
        print("%-14s digests seed1 %s seed2 %s" %
              (workload, digests.get((1, "0")), digests.get((2, "0"))))
    if len(apps_digests) != 2 or apps_digests[0] != apps_digests[1] or \
            "incomplete" in apps_digests or None in apps_digests:
        problems.append("latency_sweep: digest_apps %s should be one "
                        "seed-independent value" % apps_digests)
    for p in problems:
        print("FAIL:", p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
