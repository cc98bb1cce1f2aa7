#!/usr/bin/env python3
"""Builds and runs the qnet end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload monitor-k1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the benchmark program into
.bench_build/perfbench (CMake, Ninja when available); later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the program's
result object. The exit code is the program's (non-zero on a failed output check),
or 1 when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # never reuse a failed configure
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the library sources and the root build file (the code under test)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(directory, name) for name in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    # A checkout without git metadata has no sha; the source digest identifies it.
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def main(argv):
    if argv == ["--self-test"]:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if not build("qnet_perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PERFBENCH_SOURCE_SHA256=source_digest(), PERFBENCH_GIT_SHA=git_sha())
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    command = [os.path.join(BUILD, "qnet_perfbench")] + argv + ["--spans-dir", spans]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
