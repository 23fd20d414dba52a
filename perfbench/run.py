#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/CMakeLists.txt (the propsim libraries plus
the driver) under $CARGO_TARGET_DIR, default .bench_build, relative to the
repository root, then runs the driver from the root. The driver's last
stdout line is the JSON result; see perfbench/perfbench.cpp for the metrics
and checks. Build output goes to <build dir>/build.log and is shown only
when the build fails.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "app" / "experiment.cpp").is_file():
        fail(f"no propsim sources under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", BUILD_JOBS],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def main():
    binary = build()
    try:
        done = subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
