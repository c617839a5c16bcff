#!/usr/bin/env python3
"""Build and run the padico-ml benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload san-mix --seed 1 --seconds 10 --trace 0

The benchmark is the OCaml executable perfbench/perfbench.exe, built here
from source with dune. Its standard output is passed through; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is the benchmark's: non-zero when an output was
wrong, the build failed or the checkout is incomplete.

    python3 perfbench/run.py --selftest [--seconds S]

runs every simulated workload twice with the same seed, in separate
processes, and checks that their virtual-time metrics, peak heap and
event counts agree exactly (see README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["san-mix", "wan-collectives", "edge-churn", "host-loopback"]
SIM_WORKLOADS = WORKLOADS[:3]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return [os.path.join(prefix, "bin", "dune")]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: dune-project or lib/ not found; run from the root of "
              "a complete checkout", file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    # Build output goes to stderr: stdout's last line is the result.
    r = subprocess.run(dune + ["build", "--root", ".", "./perfbench/perfbench.exe"],
                       stdout=sys.stderr, env=env)
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return r.returncode
    return 0


def disable_thp():
    """Keep the benchmark off transparent huge pages. Whether the kernel
    can back a multi-hundred-MB heap with huge pages depends on how
    fragmented the machine's memory is at that moment; with THP on,
    wan-collectives' wall_s moved by a quarter between identical runs.
    The setting is inherited by the benchmark process; the program's own
    GC settings are untouched."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(41, 1, 0, 0, 0)  # PR_SET_THP_DISABLE
    except (OSError, AttributeError):
        pass


def run_bench(argv, capture=False):
    try:
        r = subprocess.run([EXE] + argv, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return r.returncode, r.stdout if capture else ""


def selftest(seconds):
    """Same seed, two processes: virtual metrics, peak heap and event
    counts must agree exactly on every simulated workload."""
    exact = ["peak_heap_mb", "lat_p50_us", "lat_p99_us"]
    exact_traced = ["engine.events", "engine.pending_peak", "simnet.frames_per_op",
                    "na.madio.dispatched", "na.sysio.dispatched", "api.mpi.vlat_p50_us",
                    "coll.wan_msgs_per_op", "tcp.conns_peak"]
    ok = True
    for w in SIM_WORKLOADS:
        for trace, keys in (("0", exact), ("1", exact_traced)):
            results = []
            for _ in range(2):
                code, out = run_bench(["--workload", w, "--seed", "7", "--seconds",
                                       str(seconds), "--trace", trace], capture=True)
                last = out.strip().splitlines()[-1] if out.strip() else "{}"
                results.append((code, json.loads(last)))
            for code, res in results:
                if code != 0 or not res.get("correct"):
                    print("selftest %s trace=%s: run failed" % (w, trace))
                    ok = False
            if all(code == 0 for code, _ in results):
                a, b = (res["metrics"] for _, res in results)
                for k in keys:
                    same = a[k]["value"] == b[k]["value"]
                    print("selftest %-16s %-22s %s %s" % (w, k, "same" if same else "DIFFERS",
                                                          a[k]["value"]))
                    ok = ok and same
    print("selftest: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and (a.workload is None or a.seed is None or a.trace is None):
        p.error("--workload, --seed and --trace are required")
    if a.seconds < 1 or (a.seed is not None and a.seed < 0):
        p.error("--seconds must be >= 1 and --seed >= 0")
    code = build()
    if code != 0:
        return code
    disable_thp()
    if a.selftest:
        return selftest(a.seconds)
    code, _ = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
