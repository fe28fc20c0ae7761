#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_static --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest     # the benchmark's own tests
    python3 perfbench/run.py --manifest     # regenerate BENCHMARK.json

Run from the repository root.  The benchmark is a CMake package of its
own (perfbench/CMakeLists.txt) that compiles the library sources in src/
into the build directory (``$CARGO_TARGET_DIR`` if set, else
``.bench_build``), then runs ``pfem_perfbench``.  The last line of
standard output is the result object.  Provenance (git sha and dirty
flag when the tree is a git checkout, a digest of src/, build type,
nproc, LLC size, seed, sample counts and the run's raw values) is
printed before it and appended to ``<build>/perfbench/runs/runs.jsonl``.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, **kw):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, **kw)


def build(build_dir, targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
               "--target", *targets])


def git_provenance():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "none", "none"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return sha, "1" if dirty else "0"
    except subprocess.CalledProcessError:
        return "none", "none"


def src_digest():
    """Digest of every source the benchmark binary is built from: the
    library in src/ and the benchmark's own C++ and CMake files."""
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [p for p in HERE.iterdir()
              if p.suffix in (".cpp", ".hpp") or p.name == "CMakeLists.txt"]
    h = hashlib.sha256()
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main(argv):
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if "--selftest" in argv:
        build(build_dir, ["perfbench_selftest", "pfem_perfbench"])
        scratch = build_dir / "selftest"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        return subprocess.run([str(build_dir / "perfbench_selftest"),
                               str(ROOT / "BENCHMARK.json"),
                               str(build_dir / "pfem_perfbench"),
                               str(scratch)]).returncode
    if "--manifest" in argv:
        build(build_dir, ["pfem_perfbench"])
        return subprocess.run([str(build_dir / "pfem_perfbench"), "--manifest"]).returncode

    build(build_dir, ["pfem_perfbench"])
    workdir = build_dir / "runs"
    workdir.mkdir(parents=True, exist_ok=True)
    sha, dirty = git_provenance()
    cmd = [str(build_dir / "pfem_perfbench"), *argv,
           "--workdir", os.path.relpath(workdir, ROOT),
           "--git-sha", sha, "--git-dirty", dirty, "--src-digest", src_digest()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
