#!/usr/bin/env python3
"""vdram benchmark: end-to-end workloads and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

    fit_datasheet  vdram fit to the DDR3-1333 x16 datasheet bands, 24 starts
    fit_measured   vdram fit to one measured part drawn from the vendor
                   band by the seed, 24 starts

The first run builds the vdram CLI, the load generator and the traced
layer runner from the repository sources with CMake into the build
directory ($CARGO_TARGET_DIR, default .bench_build). Human-readable lines go
to stderr; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, timed from this script's own
clock around real vdram processes. --trace 1 runs perfbench_ledger (the
library's public calls, timed layer by layer, spans written as a chrome
trace), the Monte-Carlo and scheduler CLI commands with their output
checks, and the serve/fleet layer probes; it reports the per-layer
metrics and the tracing overhead.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

# Keep the benchmark directory free of compiled bytecode.
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
PRESET = "preset:ddr3_1g_55"
NPROC = os.cpu_count() or 1

FIT_STARTS = 24
# IDD band (mA) of DDR3-1333 x16 1Gb parts: the low and high vendor
# calibrations in examples/data/fit_ddr3_vendor_{low,high}.json.
VENDOR_BAND = (("IDD0", 75.0, 95.0), ("IDD4R", 167.5, 212.5),
               ("IDD4W", 156.25, 198.75))
VENDOR_TOLERANCE = 0.05
SETUP_REPS = 21
SLOW_PATH_ENV = {"VDRAM_FASTPATH": "off", "VDRAM_SIMD": "off"}

WORKLOADS = ("fit_datasheet", "fit_measured")


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Infrastructure failure: no result can be reported."""


# One finished process: exit code, wall seconds, peak RSS in MB.
Proc = collections.namedtuple("Proc", "code wall rss_mb")


def run_proc(cmd, stdout=None, stderr=None, env=None, cwd=None):
    """Run @p cmd to completion; wall time and peak RSS come from this
    process's clock and wait4(), so they cover the whole child (and any
    children it reaped)."""
    full_env = None
    if env:
        full_env = dict(os.environ)
        full_env.update(env)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr,
                            stdin=subprocess.DEVNULL, env=full_env, cwd=cwd)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # SIGTERM or Ctrl-C: do not leave it running
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def run_to_files(cmd, work, tag, env=None, cwd=None):
    """Run @p cmd with stdout/stderr captured; returns (Proc, out, err)."""
    out_path = os.path.join(work, tag + ".out")
    err_path = os.path.join(work, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = run_proc(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
    with open(out_path, "rb") as f:
        out_bytes = f.read()
    with open(err_path, "rb") as f:
        err_bytes = f.read()
    return proc, out_bytes, err_bytes


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 8:
                self.reasons.append(reason)


class Bench:
    def __init__(self, args):
        self.args = args
        # `vdram sched` takes seeds below 2^32; every generator gets the
        # same value.
        self.seed = args.seed % 2**32
        self.seconds = args.seconds
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.build_root = os.path.join(ROOT, target)
        self.build_dir = os.path.join(self.build_root, "perfbench")
        self.cli = os.path.join(self.build_dir, "vdram_cli")
        self.loadgen = os.path.join(self.build_dir, "perfbench_loadgen")
        self.ledger = os.path.join(self.build_dir, "perfbench_ledger")
        self.work = os.path.join(self.build_root, "perfbench-work",
                                 "%s-%d" % (args.workload, os.getpid()))
        self.tally = Tally()
        self.children = []

    # ----------------------------------------------------------------- build

    def build(self):
        if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) \
                or not os.path.isfile(os.path.join(ROOT, "tools",
                                                   "vdram_cli.cc")):
            raise BenchError("vdram sources (src/, tools/) not found next "
                             "to perfbench/; run from a repository checkout")
        if shutil.which("cmake") is None:
            raise BenchError("cmake not found")
        os.makedirs(self.build_dir, exist_ok=True)
        log_path = os.path.join(self.build_root, "perfbench-build.log")
        with open(log_path, "wb") as log_file:
            if not os.path.isfile(os.path.join(self.build_dir,
                                               "CMakeCache.txt")):
                configure = ["cmake", "-S", BENCH_DIR, "-B", self.build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    configure += ["-G", "Ninja"]
                if run_proc(configure, stdout=log_file,
                            stderr=subprocess.STDOUT).code != 0:
                    raise BenchError("cmake configure failed; see " + log_path)
            build = ["cmake", "--build", self.build_dir, "-j", str(NPROC)]
            if run_proc(build, stdout=log_file,
                        stderr=subprocess.STDOUT).code != 0:
                raise BenchError("build failed; see " + log_path)

    # ------------------------------------------------------------- reference

    def reference(self, name, cmd, files=()):
        """Outputs of @p cmd under the scalar slow path, computed once per
        seed and binary, outside every timed run. Returns the stdout bytes
        and the contents of @p files (paths the command writes)."""
        with open(self.cli, "rb") as f:
            digest = hashlib.sha1(f.read()).hexdigest()[:16]
        cache = os.path.join(self.build_root, "perfbench-ref",
                             "%s-%d-%s.json" % (name, self.seed, digest))
        if os.path.isfile(cache):
            with open(cache) as f:
                saved = json.load(f)
            return saved["stdout"].encode(), [x.encode() for x in
                                              saved["files"]]
        proc, out, err = run_to_files(cmd, self.work, name + "-ref",
                                      env=SLOW_PATH_ENV)
        if proc.code != 0:
            raise BenchError("reference run failed (exit %d): %s" %
                             (proc.code, err.decode(errors="replace")[-400:]))
        contents = []
        for path in files:
            with open(path, "rb") as f:
                contents.append(f.read())
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(cache + ".tmp", "w") as f:
            json.dump({"stdout": out.decode(),
                       "files": [x.decode() for x in contents]}, f)
        os.replace(cache + ".tmp", cache)
        return out, contents

    # ----------------------------------------------------------------- setup

    def setup_cli(self, cmds, ok=lambda proc, err: proc.code == 0):
        """Median wall of running @p cmds back to back, SETUP_REPS times;
        @p ok(proc, stderr) decides whether a run succeeded."""
        walls = []
        rss = 0.0
        for rep in range(SETUP_REPS):
            total = 0.0
            for i, cmd in enumerate(cmds):
                proc, _, err = run_to_files(cmd, self.work, "setup%d" % i)
                self.tally.check(ok(proc, err), "setup command exit %d: %s"
                                 % (proc.code, err.decode()[-200:]))
                total += proc.wall
                rss = max(rss, proc.rss_mb)
            walls.append(total)
        return median(walls), rss

    def timed_loop(self, body, min_reps=3):
        """Call @p body until --seconds have passed (at least min_reps
        times)."""
        start = time.perf_counter()
        reps = 0
        while reps < min_reps or time.perf_counter() - start < self.seconds:
            body()
            reps += 1

    # ------------------------------------------------------------- workloads

    def measured_part(self):
        """Targets file of one measured part, drawn by the seed from the
        vendor band. It is written once per seed under the build
        directory, so its path, and the cached reference, stay the same
        from run to run."""
        u = random.Random(self.seed).random()
        spec = {"name": "ddr3-1333-x16-part-%d" % self.seed,
                "tolerance": VENDOR_TOLERANCE,
                "targets": [{"measure": measure,
                             "ma": round(low + u * (high - low), 3)}
                            for measure, low, high in VENDOR_BAND]}
        path = os.path.join(self.build_root, "perfbench-inputs",
                            "part-%d.json" % self.seed)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(spec, f, indent=1)
        os.replace(path + ".tmp", path)
        return path

    def fit_command(self, extra=()):
        """`vdram fit` of the selected workload, seeded; @p extra goes
        after the defaults, so it can override them."""
        if self.args.workload == "fit_datasheet":
            targets = ["--datasheet=ddr3", "--rate=1333", "--width=16"]
        else:
            targets = ["--targets=" + self.measured_part()]
        return [self.cli, "fit", PRESET] + targets + [
            "--starts=%d" % FIT_STARTS] + list(extra) + [
            "--seed=%d" % self.seed]

    def fit(self):
        report = os.path.join(self.work, "fit-report.json")

        def cmd(extra=()):
            return self.fit_command(list(extra) + ["--report=" + report])

        ref_out, (ref_report,) = self.reference(self.args.workload, cmd(),
                                                files=[report])
        # One generation may leave a measured part out of tolerance: exit
        # 1 with the residual table is the expected outcome then.
        setup, rss = self.setup_cli(
            [cmd(["--starts=1", "--max-generations=1"])],
            ok=lambda proc, err: proc.code in (0, 1)
            and b"generations 1 (" in err)
        walls = []
        evals = set()

        def once():
            nonlocal rss
            proc, out, err = run_to_files(cmd(), self.work, "fit")
            with open(report, "rb") as f:
                got_report = f.read()
            evaluations = [int(line.rsplit(b" ", 1)[1])
                           for line in err.splitlines()
                           if b"evaluations " in line]
            evals.update(evaluations)
            self.tally.check(
                proc.code == 0 and out == ref_out and got_report == ref_report
                and len(evaluations) == 1,
                "fit output differs from the VDRAM_FASTPATH=off "
                "VDRAM_SIMD=off reference or did not converge (exit %d)"
                % proc.code)
            walls.append(proc.wall)
            rss = max(rss, proc.rss_mb)

        self.timed_loop(once)
        self.tally.check(len(evals) == 1, "fit evaluation count varies "
                         "between runs of one seed: %s" % sorted(evals))
        evaluations = max(evals) if evals else 0
        residuals = json.loads(ref_report)["residuals"]
        worst = max(abs(r["residual"]) for r in residuals) * 100
        self.tally.check(all(r["within"] for r in residuals),
                         "fitted residual outside its tolerance")
        human = {"fit_evals_per_s": (evaluations / median(walls),
                                     "evaluations/s"),
                 "fit_wall_ms": (median(walls) * 1000.0, "ms"),
                 "fit_evaluations": (evaluations, "count"),
                 "fit_runs": (len(walls), "count"),
                 "fit_max_residual_pct": (worst, "%")}
        return {"setup_s": setup, "peak_rss_mb": rss,
                "throughput_per_s": evaluations / median(walls)}, human

    # ---------------------------------------------------------------- report

    def cleanup(self):
        for proc in self.children:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)


END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "throughput_per_s": "1/s"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench = Bench(args)
    # A SIGTERM unwinds through the cleanup below like an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        bench.build()
        os.makedirs(bench.work, exist_ok=True)
        if args.trace:
            # traced.py imports this file as `run`; hand it this instance
            # of the module rather than a second copy.
            sys.modules.setdefault("run", sys.modules[__name__])
            import traced
            units, values = traced.run_traced(bench)
        else:
            values, human = bench.fit()
            units = END_TO_END_UNITS
            for name, (value, unit) in human.items():
                log("%s: %s = %.6g %s" % (args.workload, name, value, unit))
    except BenchError as error:
        log("perfbench: " + str(error))
        bench.cleanup()
        return 1
    except BaseException:
        bench.cleanup()
        raise
    bench.cleanup()

    for reason in bench.tally.reasons:
        log("FAILED: " + reason)
    for name in units:
        log("%s: %s = %.6g %s" % (args.workload, name, values[name],
                                  units[name]))
    log("%s: %d operations attempted, %d failed" %
        (args.workload, bench.tally.attempted, bench.tally.failed))
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": max(1, bench.tally.attempted),
        "failed": bench.tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
