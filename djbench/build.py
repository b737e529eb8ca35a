#!/usr/bin/env python3
"""Build file of the benchmark: compiles the system and the benchmark from source.

    python3 djbench/build.py        # prints the class directory

The system's sources (src/main/scala and jobs/) and the benchmark's own
(djbench/src) are compiled in one scalac call with the Scala compiler that
ships in the Spark distribution ($SPARK_HOME/jars, /opt/spark by default),
the same jars build.sbt puts on the classpath. Everything is written under
.bench_build/ at the root of the checkout. A stamp over the sources' paths
and contents makes a rebuild happen only when a source changed.
"""
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPARK_HOME = os.environ.get("SPARK_HOME", "/opt/spark")
SOURCE_DIRS = ["src/main/scala", "jobs", "djbench/src"]
OUT = os.path.join(ROOT, ".bench_build", "djbench")


class BuildError(Exception):
    pass


def spark_jars():
    return os.path.join(SPARK_HOME, "jars", "*")


def sources():
    missing = [d for d in SOURCE_DIRS if not os.path.isdir(os.path.join(ROOT, d))]
    if missing:
        raise BuildError("missing source directories: " + ", ".join(missing))
    files = []
    for d in SOURCE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(ROOT, d)):
            files += [os.path.join(dirpath, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def stamp(files):
    h = hashlib.sha256()
    h.update(SPARK_HOME.encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile if needed; return the directory holding the compiled classes."""
    files = sources()
    if not os.path.isdir(os.path.join(SPARK_HOME, "jars")):
        raise BuildError("no Spark distribution at " + SPARK_HOME)
    want = stamp(files)
    classes = os.path.join(OUT, "classes")
    stamp_file = os.path.join(OUT, "stamp")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.isfile(stamp_file) and open(stamp_file).read() == want:
            return classes
        tmp = classes + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", spark_jars(), "scala.tools.nsc.Main",
               "-nowarn", "-d", tmp, "-cp", spark_jars()] + files
        print("djbench: compiling %d sources" % len(files), file=sys.stderr, flush=True)
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise BuildError("scalac failed with exit code %d" % res.returncode)
        shutil.rmtree(classes, ignore_errors=True)
        os.rename(tmp, classes)
        with open(stamp_file, "w") as fh:
            fh.write(want)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print("djbench: build failed: %s" % e, file=sys.stderr)
        sys.exit(2)
