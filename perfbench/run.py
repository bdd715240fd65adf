#!/usr/bin/env python3
"""Builds and runs the ssjoin benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the benchmark package in release mode (into
$CARGO_TARGET_DIR, or perfbench/target), runs one workload and passes its
output through; the last stdout line is the JSON result. The second runs
every workload of BENCHMARK.json at tiny sizes, traced and untraced, and
checks that each passes its oracle and reports exactly the metric names
BENCHMARK.json lists.
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
RUN_TIMEOUT_S = 170


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run(exe, args, capture=False):
    """Runs the benchmark binary in its own process group, so nothing it
    starts outlives it; returns (exit code, stdout or None)."""
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))
    proc = subprocess.Popen([exe] + args + ["--work", WORK], env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None, text=True)
    timed_out = False
    out = None
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        timed_out = True
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return (1 if timed_out else proc.returncode), out


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = 0
    for wl in spec["workloads"]:
        for trace, metrics in sets.items():
            args = ["--workload", wl["name"], "--seed", "7", "--seconds", "2",
                    "--trace", str(trace), "--scale", "tiny"]
            code, out = run(exe, args, capture=True)
            problems = []
            result = None
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (AttributeError, IndexError, ValueError):
                problems.append("no JSON result line")
            if code != 0:
                problems.append(f"exit code {code}")
            if result is not None:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"keys {sorted(result)}")
                if result.get("correct") is not True:
                    problems.append("oracle failed")
                if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                    problems.append("attempted < 1")
                if result.get("failed") != 0:
                    problems.append(f"{result.get('failed')} operations failed")
                got = result.get("metrics", {})
                want = {m["name"]: m["unit"] for m in metrics}
                if set(got) != set(want):
                    problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
                for name, unit in want.items():
                    m = got.get(name)
                    if m is None:
                        continue
                    if m.get("unit") != unit:
                        problems.append(f"{name} unit {m.get('unit')!r} != {unit!r}")
                    v = m.get("value")
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append(f"{name} value {v!r}")
                    elif trace == 0 and v <= 0:
                        problems.append(f"{name} is {v}, end-to-end metrics are never 0")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            failures += bool(problems)
            print(f"self-test {wl['name']} trace={trace}: {status}", flush=True)
    return 1 if failures else 0


def main():
    exe = build()
    if sys.argv[1:] == ["--self-test"]:
        code = self_test(exe)
    else:
        code, _ = run(exe, sys.argv[1:])
    shutil.rmtree(WORK, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
