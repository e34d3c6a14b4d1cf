#!/usr/bin/env python3
"""Campaign benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload shallow-pruned --seed 1 --seconds 10 --trace 0

Builds `swifi` and the `perfbench` binary (into $CARGO_TARGET_DIR,
default `.bench_build`) and computes the workload's reference outside
the timed region, once per build of `perfbench` (it is kept beside the
binary, keyed by the binary's hash). It then runs the measurement in a
child process, which reports every metric itself. The last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    """Build the CLI (the service workload's server) and the benchmark."""
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "swifi-cli"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "swifi")


def reference(perfbench, workload, cache_dir):
    """The workload's reference file, computed once per perfbench build."""
    with open(perfbench, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(cache_dir, f"{workload}-{digest}.txt")
    if not os.path.exists(path):
        text = subprocess.run([perfbench, "reference", "--workload", workload],
                              check=True, stdout=subprocess.PIPE, text=True).stdout
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    perfbench, swifi = build(target_dir)
    ref_path = reference(perfbench, args.workload, os.path.join(target_dir, "perfbench-ref"))
    workdir = os.path.join(target_dir, "perfbench-run", str(os.getpid()))
    os.makedirs(workdir)
    try:
        proc = subprocess.run([
            perfbench, "measure", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--reference", ref_path, "--swifi", swifi, "--workdir", workdir,
        ], stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench measure failed with exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        sys.exit(f"perfbench: {e}")
