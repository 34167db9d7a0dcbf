#!/usr/bin/env python3
"""Builds the serving-stack benchmark and runs one workload.

usage: python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build (library, `optselect` CLI and
the `servebench` binary, Release) goes to .bench_build/servebench; the
first run configures and compiles, later runs only check that the build
is current. Build output goes to stderr; the binary's last stdout line is
the result JSON.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("hot_zipf", "cold_ambiguous", "wire_zipf", "reload_zipf")


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    args = {"workload": None, "seed": None, "seconds": None, "trace": "0"}
    i = 0
    while i < len(argv):
        key = argv[i]
        if not key.startswith("--") or key[2:] not in args or i + 1 >= len(argv):
            fail("bad argument %r" % key)
        args[key[2:]] = argv[i + 1]
        i += 2
    if args["workload"] not in WORKLOADS:
        fail("--workload must be one of %s" % ", ".join(WORKLOADS))
    for key in ("seed", "seconds"):
        if args[key] is None or not args[key].isdigit():
            fail("--%s needs a non-negative integer" % key)
    if args["trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    if int(args["seconds"]) < 1:
        fail("--seconds must be at least 1")
    return args


def build(root, env):
    build_dir = os.path.join(root, ".bench_build", "servebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "servebench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "servebench", "optselect"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return build_dir


def select_metrics(root, line, trace):
    """Keeps the metrics BENCHMARK.json lists for this kind of run.

    The servebench binary also reports figures that are not steady enough to
    gate on (see README.md); they stay on stderr only.
    """
    try:
        result = json.loads(line)
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (ValueError, OSError):
        return line
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    wanted = [m["name"] for m in listed]
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail("the run did not report " + ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    return json.dumps(result)


def main():
    args = parse_args(sys.argv[1:])
    root = os.getcwd()
    # The benchmark builds the program from the checkout's sources; a
    # directory without them cannot be measured.
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))
            and os.path.isdir(os.path.join(root, "tools"))):
        fail("run from the root of a checkout that holds the sources "
             "(CMakeLists.txt, src/, tools/)")
    # Everything the build and the run write stays in the checkout,
    # compiler temporaries included.
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build_dir = build(root, env)
    binary = os.path.join(build_dir, "servebench")
    cli = os.path.join(build_dir, "optselect", "optselect")
    work = os.path.join(root, ".bench_build", "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args["workload"], "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"],
           "--cli", cli, "--work", work]
    sys.stdout.flush()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if lines:
        print(select_metrics(root, lines[-1], args["trace"]))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
