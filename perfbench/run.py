#!/usr/bin/env python3
"""Build the benchmark and the program binaries it drives, then run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload suite_agents --seed 1 --seconds 20 --trace 0

Builds `qugen-serve` and `qugen-shard` from the repository workspace and the
`perfbench` package, all in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build` in the checkout), then runs the benchmark binary with the
given arguments. Build output goes to stderr; the benchmark's result JSON is
the last line of stdout. Traced runs write their spans to
`$CARGO_TARGET_DIR/perfbench-traces/<workload>-seed<N>.jsonl`. Exits non-zero
when any build step fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest] + extra
    # cargo's stdout is routed to stderr so only the result line reaches stdout.
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode


def main():
    env_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = env_dir if os.path.isabs(env_dir) else os.path.join(ROOT, env_dir)
    os.environ["CARGO_TARGET_DIR"] = target
    workspace = os.path.join(ROOT, "Cargo.toml")
    bench = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(workspace):
        print("perfbench: no repository workspace next to perfbench/", file=sys.stderr)
        return 2
    if cargo_build(workspace, ["-p", "qugen-serve", "-p", "qugen-shard", "--bins"]) != 0:
        print("perfbench: building the program failed", file=sys.stderr)
        return 2
    if cargo_build(bench, []) != 0:
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--serve-bin", os.path.join(release, "qugen-serve"),
        "--shard-bin", os.path.join(release, "qugen-shard"),
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
