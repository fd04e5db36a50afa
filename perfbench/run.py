#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny]

Run from the repository root. Builds the wefr libraries, the wefrd daemon
and the benchmark runner from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and relays
the runner's output. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Build output goes
to standard error. Exits non-zero, printing no result, when the build
fails or the run cannot complete; a completed run whose outputs are wrong
prints its result with "correct": false.

Workloads: batch_select, daemon_recheck (see perfbench/README.md).
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
WORKLOADS = ("batch_select", "daemon_recheck")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def configured_source(build_dir):
    """Source directory a build tree was configured from, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(build_dir):
    """Configures (once) and builds the runner and wefrd; False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if configured_source(build_dir) != HERE:
            cmd = ["cmake", "-S", HERE, "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            # A tree configured from another checkout is stale: start over.
            if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
                os.remove(os.path.join(build_dir, "CMakeCache.txt"))
            shutil.rmtree(os.path.join(build_dir, "CMakeFiles"), ignore_errors=True)
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
        cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_runner", "wefrd"]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = ap.parse_args()

    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(base, f"perfbench-{BUILD_TYPE}")
    # Keep the compiler's and every child's temporary files inside the build
    # area too, not in the system temp directory.
    os.environ["TMPDIR"] = os.path.join(base, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if not build(build_dir):
        log("build failed")
        return 1

    # A short relative work path keeps the daemon's socket path well under
    # the Unix-socket length limit wherever the checkout lives.
    work = os.path.join(base, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--wefrd", os.path.join(build_dir, "wefrd"),
           "--work-dir", os.path.relpath(work), "--scale", args.scale]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        # Keep the log for diagnosis but never end on a result line.
        sys.stderr.write(out)
        log(f"runner exited with code {proc.returncode}")
        return proc.returncode or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
