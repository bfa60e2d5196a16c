#!/usr/bin/env python3
"""Self-test of the lint gates: every fixture in ci/lint-fixtures/ must trip
the gate that replaced its rule.

Usage: python3 ci/lint_selftest.py

The script copies the workspace (the files git knows about, committed or
not) into a temporary directory and first checks that the copy passes
clippy and the source-rules test. Then, one fixture at a time, it plants
the fixture, runs the named gate, and requires the gate to fail naming
every expected lint code (from clippy's JSON output) or failing test.
A bare non-zero exit does not count. Exits 1 if any fixture slips through.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "ci", "lint-fixtures")

# (fixture, crate, plant, gate, what the failure must name). The plant is
# "module" (the file becomes `mod lint_fixture;` of the crate), "drop" (it
# sits under src/ unreferenced: the source-rules test reads every file
# there, compiled or not), or a file under src/ that it is appended to.
# A compile error is named by its code and message.
CLIPPY, SOURCE_RULES = "clippy", "source_rules"
CASES = [
    ("hash-order.rs", "net", "module", CLIPPY, ["clippy::disallowed_types"]),
    ("wall-clock-entropy.rs", "sim", "module", CLIPPY,
     ["E0425: cannot find function `thread_rng` in crate `rand`"]),
    ("wall-clock.rs", "topology", "module", CLIPPY,
     ["clippy::disallowed_types", "clippy::disallowed_methods"]),
    ("float-eq.rs", "stats", "module", CLIPPY, ["clippy::float_cmp"]),
    ("float-eq-zero.rs", "stats", "drop", SOURCE_RULES,
     ["no_exact_comparison_with_float_zero"]),
    ("unwrap.rs", "analysis", "module", CLIPPY, ["clippy::unwrap_used"]),
    ("cfg-test-regression.rs", "net", "module", CLIPPY, ["clippy::unwrap_used"]),
    ("dispatch-purity.rs", "mac", "module", CLIPPY,
     ["clippy::disallowed_types", "clippy::disallowed_macros"]),
    ("feature-gate.rs", "sim", "drop", SOURCE_RULES,
     ["library_source_has_no_feature_gates"]),
    ("panic-path.rs", "sim", "queue.rs", CLIPPY,
     ["clippy::indexing_slicing", "clippy::expect_used"]),
    ("salt-registry.rs", "net", "salts.rs", SOURCE_RULES,
     ["registry_lists_exactly_the_defined_salts"]),
    ("salt-call-site.rs", "net", "drop", SOURCE_RULES,
     ["stream_salts_are_defined_in_the_registry",
      "derive_seed_salts_are_named_consts"]),
    ("stale-allow.rs", "net", "module", CLIPPY,
     ["clippy::allow_attributes", "clippy::allow_attributes_without_reason",
      "unfulfilled_lint_expectations"]),
]


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def clippy(copy, package=None):
    """Runs clippy; returns (exit code, set of diagnostic codes, rendered)."""
    scope = ["-p", package] if package else ["--workspace"]
    out = run(["cargo", "clippy", *scope, "--all-targets",
               "--message-format=json", "--", "-D", "warnings"], copy)
    codes, rendered = set(), []
    for line in out.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") != "compiler-message":
            continue
        diag = msg["message"]
        code = (diag.get("code") or {}).get("code")
        if code:
            codes.update([code, f"{code}: {diag['message']}"])
        rendered.append(diag.get("rendered") or "")
    return out.returncode, codes, "".join(rendered) + out.stderr[-2000:]


def source_rules(copy):
    """Runs the source-rules test; returns (exit code, failed tests, output)."""
    out = run(["cargo", "test", "-p", "dirca-net", "--test", "source_rules"], copy)
    failed = {line.split()[1] for line in out.stdout.splitlines()
              if line.startswith("test ") and line.endswith("FAILED")}
    return out.returncode, failed, out.stdout[-3000:] + out.stderr[-2000:]


def plant(copy, fixture, krate, how):
    """Plants `fixture`; returns the (path, original text or None) to restore."""
    src = os.path.join(copy, "crates", krate, "src")
    target = os.path.join(src, how if how.endswith(".rs") else "lint_fixture.rs")
    edits = [(target, open(os.path.join(FIXTURES, fixture)).read())]
    if how == "module":
        edits.append((os.path.join(src, "lib.rs"), "\nmod lint_fixture;\n"))
    saved = [(p, open(p).read() if os.path.exists(p) else None) for p, _ in edits]
    for path, text in edits:
        open(path, "a").write(text)
    return saved


def main():
    work = tempfile.mkdtemp(prefix="lint-selftest-")
    copy = os.path.join(work, "ws")
    files = run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                ROOT).stdout.split("\0")
    for rel in filter(None, files):
        src = os.path.join(ROOT, rel)
        if os.path.lexists(src) and not os.path.isdir(src):
            os.makedirs(os.path.dirname(os.path.join(copy, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(copy, rel), follow_symlinks=False)
    os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(work, "target"))

    code, codes, text = clippy(copy)
    if code != 0:
        sys.exit(f"the unplanted copy fails clippy ({sorted(codes)}):\n{text}")
    code, failed, text = source_rules(copy)
    if code != 0:
        sys.exit(f"the unplanted copy fails source_rules ({sorted(failed)}):\n{text}")

    slipped = 0
    for fixture, krate, how, gate, expected in CASES:
        saved = plant(copy, fixture, krate, how)
        try:
            if gate == CLIPPY:
                code, named, text = clippy(copy, f"dirca-{krate}")
            else:
                code, named, text = source_rules(copy)
        finally:
            for path, original in saved:
                if original is None:
                    os.remove(path)
                else:
                    open(path, "w").write(original)
        missing = [name for name in expected if name not in named]
        if code != 0 and not missing:
            print(f"ok   {fixture}: {gate} fails naming {', '.join(expected)}")
        else:
            slipped += 1
            print(f"FAIL {fixture}: {gate} exit {code}, missing {missing}\n{text}")
    shutil.rmtree(work, ignore_errors=True)
    if slipped:
        sys.exit(f"{slipped} fixture(s) slipped through their gate")


if __name__ == "__main__":
    main()
