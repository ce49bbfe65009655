"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a fresh child
process (``workloads.py``) with the package's ``src`` on its path and no
``REPRO_*`` variables, so every run sees library defaults.  Temporary
files, the compiled native kernels and any spill directories go to
``.bench_build/tmp`` inside the checkout.

This process adopts the workload's orphaned descendants (the
``multiprocessing`` resource tracker, pool workers) and returns only when
every one of them has exited.  Afterwards it looks for shared-memory
segments and spill directories the workload left behind; each leftover
process, segment or directory counts as one failed operation.  The last
line of standard output is the workload's JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hatp-default", "hatp-tuned", "paper-suite", "service-closed")
#: Workloads that run the compiled kernels, built before any timing starts.
NATIVE_WORKLOADS = ("hatp-tuned",)
CHILD_TIMEOUT_S = 170.0
REAP_TIMEOUT_S = 5.0
SHM_DIR = "/dev/shm"
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make orphaned descendants children of this process, so it can wait for them."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def child_pids() -> list:
    """Live children of this process, read from /proc."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_descendants() -> tuple:
    """Wait for every adopted descendant; kill those still alive at the deadline.

    Returns the pids reaped and how many had to be killed.
    """
    reaped, deadline = [], time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped, 0
        if pid:
            reaped.append(pid)
            continue
        if time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    stragglers = child_pids()
    for pid in stragglers:
        print(f"leftover process {pid} killed", file=sys.stderr)
        os.kill(pid, signal.SIGKILL)
    while True:
        try:
            reaped.append(os.waitpid(-1, 0)[0])
        except ChildProcessError:
            return reaped, len(stragglers)


def leftover_files(pids, tmp: str) -> list:
    """Shared-memory segments and spill directories of ``pids`` still present."""
    prefixes = [f"repro-shm-{pid}-" for pid in pids]
    found = []
    if os.path.isdir(SHM_DIR):
        found += [
            os.path.join(SHM_DIR, name)
            for name in os.listdir(SHM_DIR)
            if any(name.startswith(prefix) for prefix in prefixes)
        ]
    found += [
        os.path.join(tmp, name) for name in os.listdir(tmp) if name.startswith("repro-spill-")
    ]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no package sources under {source}; run from a full checkout", file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=source, TMPDIR=tmp)
    started = time.monotonic()
    become_subreaper()
    if args.workload in NATIVE_WORKLOADS:
        subprocess.run(
            [sys.executable, "-c", "from repro import kernels; kernels.warm_up('native')"],
            env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
        )

    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    child = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print("workload timed out", file=sys.stderr)
        reap_descendants()
        return 1
    reaped, killed = reap_descendants()
    leftovers = leftover_files([child.pid, *reaped], tmp)
    for path in leftovers:
        print(f"leftover {path} removed", file=sys.stderr)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            os.unlink(path)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"workload exited with {child.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    result["failed"] += killed + len(leftovers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
