#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the workspace crates. It builds into $CARGO_TARGET_DIR when
set, else perfbench/target. Build output goes to stderr; the benchmark's own
stdout passes through, and its last line is the JSON result. The exit code is
the benchmark's, or 1 when the build fails.

The benchmark runs with glibc's heap trim and mmap thresholds fixed at 1 GiB,
so the buffers each forward allocates and frees are reused from the heap.
By default glibc hands freed heap tops back to the kernel, and every forward
faults the pages in again; in a guest each fault costs a trip to the host,
whose latency follows the host's load. On offline-gcn that raised the median
forward by a quarter.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cmd, **kw):
    """Run cmd to completion; stop it if this script is told to stop."""
    child = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        child.terminate()
        # Reap with waitpid, not child.wait(): the interrupted wait() below
        # holds Popen's lock, and waiting on it here would deadlock.
        try:
            os.waitpid(child.pid, 0)
        except ChildProcessError:
            pass
        os._exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    return child.wait()


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ]
    if run(build, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    env = dict(os.environ, MALLOC_TRIM_THRESHOLD_=str(1 << 30), MALLOC_MMAP_THRESHOLD_=str(1 << 30))
    return run([os.path.join(target, "release", "tlpgnn-perfbench")] + sys.argv[1:], env=env)


if __name__ == "__main__":
    sys.exit(main())
