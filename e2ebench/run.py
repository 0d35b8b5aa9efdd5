#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package
(e2ebench/Cargo.toml) and the `vwsdk` binary the serve-mix workload
launches, both in release mode into $CARGO_TARGET_DIR (default
.bench_build), then replaces itself with the benchmark binary, passing
every argument through. Build output goes to stderr; the benchmark's
last stdout line is its JSON result. Exits non-zero without a result if
either build fails (for example when the repository's crates are absent).
"""

import hashlib
import os
import subprocess
import sys


def source_identity(root):
    """The git commit if this is a checkout with history, else a hash of
    every file the build reads (so results from a plain source tree still
    name the code they measured)."""
    try:
        if not os.path.isdir(os.path.join(root, ".git")):
            raise OSError("not a git checkout")
        sha = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        return f"git:{sha}{'+dirty' if dirty else ''}"
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "src", "crates", "e2ebench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, names in os.walk(path)
            for f in names
            if f.endswith((".rs", ".toml", ".py"))
        )
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return f"tree:{digest.hexdigest()[:16]}"


def main():
    root = os.getcwd()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "e2ebench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "--bin", "vwsdk"],
    ]
    for command in builds:
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"error: build failed: {' '.join(command)}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    env["E2EBENCH_RUSTC"] = rustc
    env["E2EBENCH_SOURCE"] = source_identity(root)
    binary = os.path.join(release, "vwsdk-e2ebench")
    args = sys.argv[1:] + ["--vwsdk", os.path.join(release, "vwsdk")]
    sys.stdout.flush()
    os.execve(binary, [binary] + args, env)


if __name__ == "__main__":
    main()
