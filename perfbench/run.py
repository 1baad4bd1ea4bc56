#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (release, offline) into $CARGO_TARGET_DIR, default
`.bench_build`, prints one `provenance` line (git rev and dirty flag read
from `.git`, CPU model and logical cores from /proc/cpuinfo, `rustc -V`,
build profile, and whether the host matches `reference_host.json`), then
runs the binary. Its last output line is the JSON result. Any build or
run failure exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds plus set-up and checks, and must end
# within 180 s.
RUN_TIMEOUT_S = 175


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"error: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"error: building perfbench failed (exit {done.returncode})")
    return os.path.join(target_dir(), "release", "perfbench")


def read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def git_rev():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    head = read(os.path.join(git, "HEAD"))
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    loose = read(os.path.join(git, ref))
    if loose:
        return loose.strip()
    for line in (read(os.path.join(git, "packed-refs")) or "").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return "unknown"


def git_dirty():
    """True/False when a local git can compare the tree with HEAD."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(
        ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
        capture_output=True, text=True,
    )
    return bool(done.stdout.strip()) if done.returncode == 0 else "unknown"


def host():
    info = read("/proc/cpuinfo") or ""
    models = [l.split(":", 1)[1].strip() for l in info.splitlines() if l.startswith("model name")]
    cores = sum(1 for l in info.splitlines() if l.startswith("processor"))
    return {
        "cpu_model": models[0] if models else "unknown",
        "logical_cores": cores or os.cpu_count() or 0,
    }


def rustc_version():
    try:
        done = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
        return done.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def provenance():
    here = host()
    reference = json.loads(read(os.path.join(HERE, "reference_host.json")) or "{}")
    return {
        "git_rev": git_rev(),
        "git_dirty": git_dirty(),
        **here,
        "rustc": rustc_version(),
        "profile": "release (lto=thin, codegen-units=4)",
        "host_matches_reference": all(reference.get(k) == v for k, v in here.items()),
    }


def main():
    binary = build()
    prov = provenance()
    line = json.dumps(prov, sort_keys=True)
    print(f"provenance {line}")
    if not prov["host_matches_reference"]:
        print("provenance: this host differs from reference_host.json, "
              "the host the bounds were set on; compare figures across hosts with care")
    sys.stdout.flush()
    try:
        done = subprocess.run(
            [binary, *sys.argv[1:], "--provenance", line],
            cwd=ROOT, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"error: perfbench did not finish within {RUN_TIMEOUT_S} s")
    except OSError as e:
        sys.exit(f"error: cannot run {binary}: {e}")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
