#!/usr/bin/env python3
"""Benchmark entry point for cpsguard.

    python3 cpsbench/run.py --workload serve_steady --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The script checks every flag against
the table below before doing any work, builds the cpsbench binary and the program's
libraries from source into .bench_build/ (CMake, incremental), runs the
binary's self-test, then runs one measurement in a fresh temporary directory
under .bench_tmp/ that is removed afterwards. The last line of standard output
is the result JSON: {"correct", "attempted", "failed", "metrics"}.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("serve_steady", "campaign")
BOOLEANS = {"0": "0", "1": "1", "false": "0", "true": "1"}

# name -> (kind, parameter). Every flag is required.
FLAGS = {
    "workload": ("choice", WORKLOADS),
    "seed": ("uint", 2**64 - 1),
    "seconds": ("int_range", (1, 60)),
    "trace": ("bool", None),
}

RUN_TIMEOUT_S = 170


class FlagError(ValueError):
    pass


def parse_flags(argv):
    """Validate argv against FLAGS; returns {name: canonical string}."""
    values = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--") or len(arg) == 2:
            raise FlagError(f"unexpected argument {arg!r}")
        name, eq, raw = arg[2:].partition("=")
        if not eq:
            if i + 1 >= len(argv):
                raise FlagError(f"--{name} needs a value")
            raw = argv[i + 1]
            i += 1
        i += 1
        if name not in FLAGS:
            raise FlagError(f"unknown flag --{name}")
        if name in values:
            raise FlagError(f"--{name} given twice")
        values[name] = _check_value(name, raw)
    missing = [f"--{n}" for n in FLAGS if n not in values]
    if missing:
        raise FlagError("missing " + ", ".join(missing))
    return values


def _check_value(name, raw):
    kind, param = FLAGS[name]
    if kind == "choice":
        if raw not in param:
            raise FlagError(f"--{name} must be one of {', '.join(param)}, got {raw!r}")
        return raw
    if kind == "bool":
        if raw not in BOOLEANS:
            raise FlagError(f"--{name} must be 0, 1, true or false, got {raw!r}")
        return BOOLEANS[raw]
    if not raw.isascii() or not raw.isdigit():
        raise FlagError(f"--{name} must be a non-negative integer, got {raw!r}")
    value = int(raw)
    lo, hi = (0, param) if kind == "uint" else param
    if not lo <= value <= hi:
        raise FlagError(f"--{name} must be in [{lo}, {hi}], got {raw}")
    return str(value)


def source_digest(src):
    """SHA-256 over the program's source tree (paths and bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def build(root, build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "cpsbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "cpsbench",
                    "cpsbench_selftest", "-j", jobs], check=True, stdout=sys.stderr)
    subprocess.run([str(build_dir / "cpsbench_selftest"), "--gtest_brief=1"],
                   check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)


def main(argv):
    try:
        flags = parse_flags(argv)
    except FlagError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no program sources under {root / 'src'}", file=sys.stderr)
        return 1
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build or self-test failed: {e}", file=sys.stderr)
        return 1

    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        proc = subprocess.run(
            [str(build_dir / "cpsbench"), flags["workload"], flags["seed"],
             flags["seconds"], flags["trace"], tmp_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: cpsbench timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"run.py: cpsbench exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    print(json.dumps({"info": {"source_sha256": source_digest(root / "src")}}))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
