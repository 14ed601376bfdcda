#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload d1lc-serial --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds
into $CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Scratch files and span files go to
.bench_out/. The benchmark and every process it starts run in their own
process group, which is stopped and waited for on every exit path.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What a run may take beyond its --seconds: five set-ups, the drain of the
# open loop and the checks after it.
RUN_MARGIN_S = 130


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def revision():
    """(rev, dirty) from git when the checkout is a repository, else a
    digest of the program and benchmark sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
        if rev.returncode == 0:
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                     "--", "src", "perfbench"],
                                    capture_output=True, text=True, env=env,
                                    timeout=10)
            return rev.stdout.strip(), "1" if status.stdout.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16], "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("program sources (src/) not found next to perfbench/")
        return False
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "ldc_perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def group_alive(pgid):
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % pid) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid):
    """SIGTERM, then SIGKILL, the whole group; wait until it is gone."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            if not group_alive(pgid):
                return
            time.sleep(0.02)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 1
    rev, dirty = revision()
    cmd = [os.path.join(build_dir, "bin", "ldc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", ".bench_out", "--rev", rev, "--dirty", dirty]

    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    forwarded = []

    def forward(sig, _frame):
        forwarded.append(sig)
        try:
            os.kill(child.pid, sig)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    timeout_s = args.seconds + RUN_MARGIN_S
    try:
        code = child.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % timeout_s)
        os.kill(child.pid, signal.SIGTERM)
        try:
            code = child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            code = child.wait()
        code = code or 1
    finally:
        stop_group(child.pid)
    if forwarded and code == 0:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
