#!/usr/bin/env python3
"""Benchmark entry point: one workload run in a fresh JVM.

    python3 djbench/run.py --workload refine-loop --seed 1 --seconds 10 --trace 0
    python3 djbench/run.py --self-test

Builds the system from source (build.py), starts one JVM that runs the
workload (djbench.Main), relays what it prints and, if the run succeeded,
prints its result as the last line of standard output: one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of untraced runs; --trace 1 reports the per-layer metrics
of the traced replay. Exits non-zero without a result on any failure.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["refine-loop", "near-dup"]
# A run that does not build must end within this many seconds.
RUN_LIMIT_S = 170

# Module options the Spark launcher passes to the JVM (JavaModuleOptions).
JAVA_MODULE_OPTS = ["-XX:+IgnoreUnrecognizedVMOptions", "--add-modules=jdk.incubator.vector"] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def heap():
    """JVM heap: a quarter of the machine's memory, between 2 and 4 GiB."""
    try:
        with open("/proc/meminfo") as fh:
            kib = next(int(l.split()[1]) for l in fh if l.startswith("MemTotal:"))
        gib = kib // (4 * 1024 * 1024)
    except (OSError, StopIteration, ValueError):
        gib = 2
    return "%dg" % max(2, min(4, gib))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    try:
        classes = build.build()
    except build.BuildError as e:
        print("djbench: build failed: %s" % e, file=sys.stderr)
        return 2
    started = time.monotonic()

    tag = "self-test" if a.self_test else "%s-%d-%d" % (a.workload, a.seed, a.trace)
    work = os.path.join(build.ROOT, ".bench_build", "work", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    result_file = os.path.join(work, "result.json")
    conf = os.path.join(build.ROOT, "djbench", "conf")
    cmd = ["java", "-Xmx" + heap(), "-Xss8m"] + JAVA_MODULE_OPTS + [
        "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
        "-Dlog4j2.configurationFile=" + os.path.join(conf, "log4j2.properties"),
        "-Dspark.driver.host=127.0.0.1",
        "-Dspark.ui.enabled=false",
        "-Dspark.local.dir=" + os.path.join(work, "spark-local"),
        "-Dspark.sql.warehouse.dir=" + os.path.join(work, "warehouse"),
        "-cp", classes + os.pathsep + build.spark_jars(),
        "djbench.Main", "--work", work, "--result", result_file,
    ]
    if a.self_test:
        cmd += ["--self-test"]
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace)]

    proc = subprocess.Popen(cmd, cwd=work, start_new_session=True)

    def stop(signum, frame):
        raise KeyboardInterrupt
    signal.signal(signal.SIGTERM, stop)
    try:
        limit = None if a.self_test else max(30.0, RUN_LIMIT_S - (time.monotonic() - started))
        code = proc.wait(timeout=limit)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        print("djbench: run stopped (time limit or signal)", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 3
    try:
        if code != 0:
            print("djbench: run failed with exit code %d" % code, file=sys.stderr)
            return code if code > 0 else 1
        if a.self_test:
            return 0
        with open(result_file) as fh:
            result = json.load(fh)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print("djbench: malformed result %r" % result, file=sys.stderr)
            return 4
        sys.stdout.flush()
        print(json.dumps(result, separators=(", ", ": ")))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
