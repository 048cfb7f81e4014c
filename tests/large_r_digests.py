"""Byte identity of stdout at large r: the SHA-256 of each command's stdout,
each run in a fresh process, against the table below.

    python tests/large_r_digests.py

prints one line per command (digest, exit code, wall seconds, command) and
exits 1 if any digest or exit code differs from the table.  The set takes
about 25 s on a 2-vCPU machine, and its largest process (verify-all at
r = 113) peaks near 235 MB, so it is kept out of the pytest suite (no test_
prefix).  A change that alters any of these outputs must say so and update
the digest."""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
_MAIN = "import sys; from so3tqft.cli import main; sys.exit(main(sys.argv[1:]))"

# (command, SHA-256 of its stdout); every command exits 0
DIGESTS = (
    (
        "tau --r 61 --survey 3 --json",
        "71648d0b42f00b0315a57c294e67027ffe2eab2f893f76d27f12285464cf6cf2",
    ),
    (
        "tau --r 61 --survey 12 --json",
        "fa0203803db26206689a01d0b51892226a5b11b2bcbf0fd55d8629a198e59af9",
    ),
    (
        "tau --r 113 --survey 3 --json",
        "07d2685843d635a19efef2fe1827c2fc3b33edd14ffadeb9ccee686e5a195532",
    ),
    (
        "tau --r 113 --chain 2,3,4 --json",
        "0318422e147423f34ede131b9d3b1cadfc1d02ca5a5e6534547790c0bbc32a6b",
    ),
    (
        "modular-data --r 113 --json",
        "3086f91c6f8372401330431eaa65991dad6dde279c10719b580ec4757181e68c",
    ),
    (
        "weil --r 113 --verify --json",
        "d2acbcbe5470a8b0dd038f83857295013bef7ed5678038f13a1216e5ef01dfc3",
    ),
    (
        "image --r 83 --generators so3 --json",
        "72cb002dce46ea78a46d18628ce960bda5c3392ce7fa2c3ff3baa67db53f7fde",
    ),
    (
        "image --r 83 --generators weil --json",
        "655741ab27ec0ca465a29d347c118b295ef0f9c147c508019b57a4cea8f80f0a",
    ),
    (
        "dims --r 113 --genus 12 --verlinde-check --json",
        "95fd088daf78c0af5c1b0a0f7eafacb0ae1e1a02efea3e450f12b3abf37b351e",
    ),
    (
        "verify-all --r 61 --json",
        "ea06f07d678f9f0460db542ffd223dd3219d02c00bab8a328be3bf2642f76dac",
    ),
    (
        "verify-all --r 113 --json",
        "c97cc8120c117faa3f46c28de0e85011933fd1b0e5f106a777e0d4743730bc33",
    ),
)


def main() -> int:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{_SRC}{os.pathsep}{path}" if path else str(_SRC))
    changed = []
    for command, want in DIGESTS:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN, *command.split()], capture_output=True, env=env
        )
        got = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{got} {proc.returncode} {time.perf_counter() - start:5.2f}s {command}", flush=True)
        if got != want or proc.returncode != 0:
            changed.append(command)
    for command in changed:
        print(f"changed: {command}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
