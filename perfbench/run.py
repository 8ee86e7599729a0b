#!/usr/bin/env python3
"""Build and run the PaSh-on-Spark benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream-spark --seed 1 --seconds 10 --trace 0

The first call builds the program together with the harness from source
(sbt, offline) into `.bench_build/`; later calls reuse that build until a
source file changes. The harness runs in one JVM. Its summary goes to
standard output, and the last line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. A results file with the
host record (and, with `--trace 1`, the span file) is written under
`.bench_build/results/`.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
STAMP = BUILD / "classpath.txt"
WORKLOADS = ("stream-spark", "sort-agg-spark", "multiregion-spark")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Spark on JDK 17 needs these module opens (same list as the repository build).
JVM_OPENS = [
    f"--add-opens={p}=ALL-UNNAMED"
    for p in (
        "java.base/java.lang", "java.base/java.lang.invoke",
        "java.base/java.lang.reflect", "java.base/java.io", "java.base/java.net",
        "java.base/java.nio", "java.base/java.util",
        "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs",
        "java.base/sun.security.action", "java.base/sun.util.calendar",
    )
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file whose change requires a rebuild."""
    dirs = [ROOT / "src" / "main" / "scala", BENCH / "src"]
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in dirs:
        files.extend(p for p in d.rglob("*.scala"))
    return files


def run_child(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout and
    wait for it, so no process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s", 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out, err


def build():
    """Compile program + harness with sbt; cache the runtime classpath."""
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail("no program sources under src/main/scala/repro: nothing to build")
    if STAMP.exists():
        built = STAMP.stat().st_mtime
        if all(f.stat().st_mtime <= built for f in sources()):
            return STAMP.read_text().strip()
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
    BUILD.mkdir(exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    t0 = time.time()
    code, out, _ = run_child(cmd, BUILD_TIMEOUT_S, cwd=BENCH, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (sbt exit {code})", 4)
    lines = [l for l in out.splitlines() if "perfbench" in l and os.pathsep in l
             and not l.startswith("[")]
    if not lines:
        sys.stderr.write(out[-4000:])
        fail("build printed no classpath", 4)
    cp = lines[-1].strip()
    STAMP.write_text(cp + "\n")
    print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)
    return cp


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--control", choices=("pash", "naive"), default="pash",
                    help="naive: compile the parallel side with the incorrect "
                         "Compiler.naive (negative control; the output check must fail)")
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    cp = build()
    work = BUILD / "work" / f"{a.workload}-{a.seed}-{a.trace}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    # A fixed 3 GB heap with a 2 GB young generation: the harness collects
    # garbage before every pass, so most passes run without a collection.
    # With the default young generation, collection pauses inside passes
    # doubled the run-to-run spread of seq_s.
    cmd = (["java", "-Xms3g", "-Xmx3g", "-Xmn2g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}"] + JVM_OPENS +
           ["-cp", cp, "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace), "--control", a.control,
            "--work", str(work), "--results", str(results),
            "--git-sha", git_sha(), "--host", platform.node() or "unknown"])
    log = results / f"{a.workload}-seed{a.seed}-trace{a.trace}.log"
    try:
        with open(log, "w") as err:
            code, out, _ = run_child(cmd, RUN_TIMEOUT_S, cwd=work,
                                     stdout=subprocess.PIPE, stderr=err, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        sys.stderr.write(log.read_text()[-4000:])
        fail(f"benchmark exited with code {code}", code or 5)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result line: {lines[-1]}", 5)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
