#!/usr/bin/env python3
"""Build paperrepro and the perfbench harness from this checkout, then run
one benchmark invocation.

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 20 --trace 0

Everything the build and the run write goes under .bench_build/ at the
checkout root: binaries, the Go build, module and config directories
(where the go command keeps its telemetry), temporary files and the
artifact stores the workloads fill. The last line of standard output is
the result JSON.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOMODCACHE=str(BUILD / "gomodcache"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOTMPDIR=str(BUILD / "tmp"),
        TMPDIR=str(BUILD / "tmp"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    return env


def build(go, env, out, pkg, cwd):
    cmd = [go, "build", "-o", str(out), pkg]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: %s failed in %s\n" % (" ".join(cmd), cwd))
        sys.exit(2)


def main():
    if not (ROOT / "go.mod").is_file() or not (ROOT / "cmd" / "paperrepro").is_dir():
        sys.stderr.write("perfbench: %s holds no paperrepro source to build\n" % ROOT)
        return 2
    go = shutil.which("go")
    if go is None:
        sys.stderr.write("perfbench: no go toolchain on PATH\n")
        return 2
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = go_env()
    bin_dir = BUILD / "bin"
    paperrepro = bin_dir / "paperrepro"
    harness = bin_dir / "perfbench"
    layers = bin_dir / "perfbench-layers"
    build(go, env, paperrepro, "./cmd/paperrepro", ROOT)
    build(go, env, harness, "./cmd/perfbench", ROOT / "perfbench")
    # Only the traced run needs the layers binary, which links the
    # program's internal packages; the timed runs depend on the CLI alone.
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    if parser.parse_known_args()[0].trace == "1":
        build(go, env, layers, "./cmd/layers", ROOT / "perfbench")
    cmd = [str(harness), "-bin", str(paperrepro), "-layers", str(layers), "-root", str(ROOT)] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
