#!/usr/bin/env python3
"""Build and run the grid benchmark (see README.md in this directory).

Run from the repository root:

    python3 gridbench/run.py --workload reused --seed 1 --seconds 20 --trace 0

The Go program is built from source into $CARGO_TARGET_DIR (default
.bench_build) with every Go cache kept under that directory, then run
with the same arguments. Its last line of standard output is the result
object. Extra options:

    --record        store this seed's results as the reference (ref/)
    --save DIR      also append the result, tagged with workload and
                    seed, to DIR/<workload>.jsonl for compare.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("gridbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main(argv):
    save = None
    if "--save" in argv:
        i = argv.index("--save")
        if i + 1 >= len(argv):
            fail("--save needs a directory")
        save = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at %s: run from a checkout of the repository" % ROOT)

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work = os.path.join(build, "gridbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(work, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "PPROF_TMPDIR": work,
    })
    binary = os.path.join(work, "gridbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")

    cmd = [binary, "-refdir", os.path.join(HERE, "ref"), "-workdir", work] + argv
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if save is not None and proc.stdout.strip():
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        tags = {"workload": None, "seed": None, "trace": "0"}
        for k in tags:
            if "--" + k in argv:
                tags[k] = argv[argv.index("--" + k) + 1]
        result.update(tags)
        os.makedirs(save, exist_ok=True)
        with open(os.path.join(save, "%s.jsonl" % tags["workload"]), "a") as f:
            f.write(json.dumps(result) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
