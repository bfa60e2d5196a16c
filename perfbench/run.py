#!/usr/bin/env python3
"""Entry point of the dirca benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark twice from source, once
plain and once with `--features trace`, each into its own directory under
`$CARGO_TARGET_DIR` (default `perfbench/target`); a fresh build is a no-op.
Then runs the variant `--trace` asks for, whose last stdout line is the
result object. Exits non-zero without a result when the build or the run
fails. See perfbench/README.md for the workloads and metrics.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175
# Inputs whose content identifies the code under test.
SOURCE_DIRS = ["crates", "vendor", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir, traced):
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", str(BENCH / "Cargo.toml"),
        "--target-dir", str(target_dir),
    ]
    if traced:
        cmd += ["--features", "trace"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    # Cargo's own output goes to stderr so the result stays the last
    # stdout line.
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return target_dir / "release" / "perfbench"


def git_rev(root):
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest(root):
    """SHA-256 over the sources the binary is built from, in path order."""
    paths = [root / f for f in SOURCE_FILES if (root / f).is_file()]
    for d in SOURCE_DIRS:
        paths += [p for p in (root / d).rglob("*") if p.is_file() and "target" not in p.parts]
    h = hashlib.sha256()
    for p in sorted(set(paths)):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    try:
        trace = args[args.index("--trace") + 1]
    except (ValueError, IndexError):
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    if trace not in ("0", "1"):
        fail("--trace needs 0 or 1")
    root = Path.cwd()
    if not (root / "crates").is_dir():
        fail(f"run from the repository root: {root} has no crates/ directory")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or BENCH / "target")
    if not target.is_absolute():
        target = root / target
    plain = build(target / "perfbench-plain", traced=False)
    traced = build(target / "perfbench-trace", traced=True)
    binary = traced if trace == "1" else plain

    state_dir = target / f"perfbench-serve-{os.getpid()}"
    cmd = [str(binary), *args, "--state-dir", str(state_dir),
           "--git-rev", git_rev(root), "--source-digest", source_digest(root)]
    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        shutil.rmtree(state_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        code = None
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
