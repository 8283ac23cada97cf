#!/usr/bin/env python3
"""The repository benchmark: builds the program from source, then runs
one workload and prints its result object as the last line.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py collect --out FILE [--workloads a,b] [--seeds 1-10]
  python3 perfbench/run.py compare BASE_FILE NEW_FILE

`collect` runs the benchmark untraced, for the run length
BENCHMARK.json sets, once per workload and seed, and appends one line
per run to FILE; `compare` reads two such files and gives a
verdict per workload and end-to-end metric (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT = 175
BUILD_TIMEOUT = 850

sys.path.insert(0, HERE)
import compare  # noqa: E402


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s not found under %s; nothing to build" % (needed, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.exit("perfbench: build failed")


def run_once(args):
    """Runs the built benchmark; returns (exit code, standard output)."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT)
    return proc.returncode, out.decode()


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def collect(argv):
    p = argparse.ArgumentParser(prog="run.py collect")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=None)
    p.add_argument("--seeds", default="1-10")
    a = p.parse_args(argv)
    spec = bench_spec()
    workloads = (
        a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    )
    seconds = spec["run_seconds"]
    build()
    with open(a.out, "a") as out:
        for w in workloads:
            for seed in seeds_of(a.seeds):
                args = ["--workload", w, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", "0"]
                code, stdout = run_once(args)
                if code != 0:
                    sys.exit("perfbench: %s seed %d exited %d" % (w, seed, code))
                result = json.loads(stdout.strip().splitlines()[-1])
                if result["failed"] > 0:
                    sys.stderr.write("perfbench: %s seed %d failed %d of %d operations\n"
                                     % (w, seed, result["failed"], result["attempted"]))
                out.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
                out.flush()
                sys.stderr.write("%s seed %d: %s\n" % (w, seed, " ".join(
                    "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())))


def main(argv):
    if argv[:1] == ["collect"]:
        return collect(argv[1:])
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare BASE_FILE NEW_FILE")
        rows = compare.compare(compare.load(argv[1]), compare.load(argv[2]), bench_spec())
        print(compare.format_rows(rows))
        return 1 if any(r[-1] == "regressed" for r in rows) else 0
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    build()
    code, stdout = run_once(["--workload", a.workload, "--seed", str(a.seed),
                             "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
