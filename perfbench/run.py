#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-matrix --seed 1 \
        --seconds 30 --trace 0 [--variant 0|1|2]

Builds the benchmark program from the repository sources into
.bench_build/ at the repository root (incrementally after the first
run), then runs it with the checked-in references, a result store
private to this run, and the calibration directory of this build of
the program (the fastest reference times seen by earlier runs of the
same binary; README.md, "Noise").  The
program's standard output is passed through; its last line is the JSON
result.  Exits non-zero, without a result, if the sources are missing
or the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(env):
    """Configure once, then build incrementally; build output goes to a log."""
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % log_path)


def calibration_dir(binary):
    """The calibration directory of this binary; drop other builds' ones."""
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    name = "calibration-" + digest.hexdigest()[:16]
    for old in os.listdir(BUILD):
        if old.startswith("calibration-") and old != name:
            shutil.rmtree(os.path.join(BUILD, old), ignore_errors=True)
    return os.path.join(BUILD, name)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "workloads",
                                       "workload.h")):
        sys.exit("perfbench: no repository sources in %s" % ROOT)
    # The simulator reads MG_* variables (jobs, check level, faults);
    # the benchmark runs with none of them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MG_")}
    build(env)
    store = os.path.join(BUILD, "store-%d" % os.getpid())
    binary = os.path.join(BUILD, "perfbench")
    cmd = [binary, "--refs", os.path.join(HERE, "refs"), "--store", store,
           "--calibration", calibration_dir(binary)]
    cmd += sys.argv[1:]
    try:
        return subprocess.run(cmd, env=env).returncode
    finally:
        shutil.rmtree(store, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
