"""Traced per-layer run of the vdram benchmark (run.py --trace 1).

Runs the CLI commands of every layer once, untraced, with their output
checks; then perfbench_ledger (in-process rebuild of the same commands,
one span per call into a layer); then probes the serve layers with the
load generator:

    direct   one `vdram serve --jobs=1`, one session, closed loop
    fleet1   `vdram fleet --workers=2 --jobs=1`, one session, closed loop
    fleet4   4 sessions, open loop at OPEN_RATE, then closed loop

Spans from the ledger and from this script are merged into one chrome
trace under <build dir>/perfbench-traces/, and the self time of each
layer (span duration minus the part its child spans cover) is reported.
The ledger's outputs must be byte-equal to the untraced CLI outputs of
the same seed. trace_overhead_pct is the ledger's fit campaign of the
selected workload inside a span against the same call with no span open
(median of three each, alternating).
"""

import hashlib
import json
import os
import signal
import subprocess
import time

import run

LAYERS = ("dsl", "core", "power", "runner", "protocol", "fit", "serve")
MC_SAMPLES = 400_000
SCHED_ACCESSES = 2_000_000
SCHED_ARGS = ["--workload=mixed", "--policy=frfcfs", "--write-frac=0.3"]
REPLAY_PREFIX_LINES = 200_000  # ~1.2M cycles, far below the dense cap
FLEET_WORKERS = 2
FLEET_ARGS = ["--workers=%d" % FLEET_WORKERS, "--jobs=1"]
# The load generator opens one connection per session, at most nproc.
FLEET_SESSIONS = min(4, run.NPROC)
# fleet4 open loop: one fixed Poisson rate, about half of the fleet's
# closed-loop capacity on a 4-vCPU host.
OPEN_RATE = 4000
PROBE_SECONDS = 2.0

# name -> unit; every name here is printed on every traced run.
PER_LAYER_UNITS = {
    "dsl.parse_us": "us",
    "core.create_us": "us",
    "core.perturb_mc_us": "us",
    "core.idd_batch_us": "us",
    "core.sample_us": "us",
    "power.charge_table_us": "us",
    "power.idd_dot_ns": "ns",
    "core.perturb_elec_us": "us",
    "core.perturb_tech_us": "us",
    "runner.run_fixed_us": "us",
    "runner.task_us_j1": "us",
    "runner.task_us_j4": "us",
    "runner.pool_wall_s": "s",
    "runner.outside_pool_s": "s",
    "runner.busy_share": "share",
    "runner.mc_1job_samples_per_s": "samples/s",
    "runner.scaling_4v1": "x",
    "protocol.workload_gen_ns": "ns",
    "protocol.schedule_ns": "ns",
    "protocol.trace_stream_ns": "ns",
    "protocol.trace_check_ns": "ns",
    "protocol.trace_parallel_ns": "ns",
    "fit.generation_us": "us",
    "fit.eval_us": "us",
    "fit.generations": "count",
    "fit.evaluations": "count",
    "fit.max_residual_pct": "%",
    "fit.runner_fixed_share": "share",
    "serve.request_parse_ns": "ns",
    "serve.lib_us": "us",
    "serve.direct_p50_us": "us",
    "serve.direct_p99_us": "us",
    "serve.envelope_us": "us",
    "fleet.hop_us": "us",
    "fleet.open_p50_us": "us",
    "fleet.open_p99_us": "us",
    "fleet.closed_rps": "1/s",
    "serve.cache_hit_share": "share",
    "serve.shed_share": "share",
    "serve.cache_hit_defect_share": "share",
    "serve.gen_late_us": "us",
    "fleet.heartbeat_misses": "count",
}
for _layer in LAYERS:
    PER_LAYER_UNITS[_layer + ".self_s"] = "s"
PER_LAYER_UNITS["trace_overhead_pct"] = "%"


class PySpans:
    """Spans recorded by this script (pid 2 in the merged trace)."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append({"name": name, "cat": layer, "ph": "X",
                           "ts": time.monotonic() * 1e6, "dur": 0.0,
                           "pid": 2, "tid": 1,
                           "args": {"id": len(self.spans),
                                    "parent": parent}})
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, span_id):
        span = self.spans[span_id]
        span["dur"] = time.monotonic() * 1e6 - span["ts"]
        self.stack.pop()
        return span["dur"] / 1e6


def self_times(events):
    """Per layer: sum over its spans of duration minus the time covered
    by the span's direct children (children nest within one pid)."""
    child_time = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            key = (e["pid"], parent)
            child_time[key] = child_time.get(key, 0.0) + e["dur"]
    totals = {layer: 0.0 for layer in LAYERS}
    for e in events:
        layer = "serve" if e["cat"] == "fleet" else e["cat"]
        if layer in totals:
            own = e["dur"] - child_time.get((e["pid"], e["args"]["id"]), 0.0)
            totals[layer] += own / 1e6
    return totals


def sha1_file(path):
    digest = hashlib.sha1()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ------------------------------------------------------------- CLI commands

def cli_outputs(bench):
    """Untraced CLI runs of every layer's command, with their output
    checks. Returns {name: stdout path}."""
    cli, seed, work = bench.cli, bench.seed, bench.work
    trace_path = os.path.join(work, "cli.trace")
    mc = [cli, "montecarlo", run.PRESET, "--samples=%d" % MC_SAMPLES,
          "--jobs=%d" % run.NPROC, "--seed=%d" % seed, "--json"]
    commands = {
        "mc_campaign": mc,
        "sched_trace": [cli, "sched", run.PRESET] + SCHED_ARGS + [
            "--count=%d" % SCHED_ACCESSES, "--seed=%d" % seed],
        "check": [cli, "trace", run.PRESET, trace_path, "--check"],
        "fit": bench.fit_command(),
    }
    outputs = {}
    for name, cmd in commands.items():
        proc, out, err = run.run_to_files(cmd, work, "cli-" + name)
        bench.tally.check(proc.code == 0, "untraced %s exit %d"
                          % (name, proc.code))
        outputs[name] = os.path.join(work, "cli-%s.out" % name)
        if name == "sched_trace":
            os.replace(outputs[name], trace_path)
            outputs[name] = trace_path
        elif name == "check":
            bench.tally.check(b"trace is protocol-clean" in err,
                              "trace --check found protocol violations")
        elif name == "mc_campaign":
            ref, _ = bench.reference("mc_campaign", mc)
            bench.tally.check(out == ref, "montecarlo output differs from "
                              "the VDRAM_FASTPATH=off VDRAM_SIMD=off "
                              "reference")
    check_replay_prefix(bench, trace_path)
    return outputs


def check_replay_prefix(bench, trace_path):
    """Streaming `trace` power must equal dense `replay` power on a
    prefix of the emitted trace below the dense-replay cap."""
    prefix = os.path.join(bench.work, "prefix.trace")
    with open(trace_path, "rb") as src, open(prefix, "wb") as dst:
        for i, line in enumerate(src):
            if i > REPLAY_PREFIX_LINES:
                break
            dst.write(line)
    _, streamed, _ = run.run_to_files(
        [bench.cli, "trace", run.PRESET, prefix], bench.work, "prefix-trace")
    _, replayed, _ = run.run_to_files(
        [bench.cli, "replay", run.PRESET, prefix], bench.work,
        "prefix-replay")
    tail = b": current "
    same = (tail in streamed and tail in replayed and
            streamed.split(tail, 1)[1] == replayed.split(tail, 1)[1])
    bench.tally.check(same, "streamed trace power differs from dense "
                      "replay on a %d-line prefix" % REPLAY_PREFIX_LINES)


# ------------------------------------------------------------------- serve

def start_daemon(bench, tag, args):
    """Start `vdram_cli <args>` (serve or fleet) in <work>/<tag>, in a
    process group of its own so cleanup also stops fleet workers.
    Sockets are relative to that directory, which keeps their paths
    short. Returns (Popen, directory)."""
    directory = os.path.join(bench.work, tag)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "daemon.err"), "wb") as err:
        proc = subprocess.Popen(
            [bench.cli] + args, stdout=subprocess.DEVNULL, stderr=err,
            stdin=subprocess.DEVNULL, cwd=directory, start_new_session=True)
    bench.children.append(proc)
    return proc, directory


def wait_ready(proc, directory, fleet):
    """Wait until the front socket exists and, for a fleet, every worker
    answered its first heartbeat."""
    err_path = os.path.join(directory, "daemon.err")
    deadline = time.monotonic() + 30
    while True:
        with open(err_path, "rb") as f:
            text = f.read()
        ready = {line.split(b" ")[2] for line in text.splitlines()
                 if line.startswith(b"fleet: worker ") and b" ready " in line}
        if (not fleet or len(ready) >= FLEET_WORKERS) and os.path.exists(
                os.path.join(directory, "front.sock")):
            return
        if proc.poll() is not None or time.monotonic() > deadline:
            raise run.BenchError("daemon did not become ready:\n" +
                                 text.decode(errors="replace")[-600:])
        time.sleep(0.001)


def stop_daemon(bench, proc, directory, fleet):
    """SIGINT drain: exit code 5, and for a fleet invariantHolds:true.
    Returns the fleet's final stats ({} for serve)."""
    proc.send_signal(signal.SIGINT)
    proc.wait()
    bench.children.remove(proc)
    stats = {}
    with open(os.path.join(directory, "daemon.err"), "rb") as f:
        for line in f.read().splitlines():
            if line.startswith(b"fleet: {"):
                stats = json.loads(line[len(b"fleet: "):])
    bench.tally.check(proc.returncode == 5 and
                      (not fleet or stats.get("invariantHolds") is True),
                      "%s drain: exit %d, invariantHolds %s" %
                      ("fleet" if fleet else "serve", proc.returncode,
                       stats.get("invariantHolds")))
    return stats


def run_loadgen(bench, cwd, extra):
    cmd = [bench.loadgen, "--socket=front.sock",
           "--seed=%d" % bench.seed] + extra
    proc, out, err = run.run_to_files(cmd, bench.work, "loadgen", cwd=cwd)
    if proc.code != 0 or not out.strip():
        raise run.BenchError("load generator failed (exit %d): %s" %
                             (proc.code, err.decode(errors="replace")[-600:]))
    if err.strip():
        run.log(err.decode(errors="replace").rstrip())
    return json.loads(out.splitlines()[-1])


def account_loadgen(bench, result):
    """Shed requests, error responses and library mismatches are
    failed operations. Responses that differ from the library only by
    the daemon's cache-hit build are the known defect: they are logged
    and reported as serve.cache_hit_defect_share, not counted as
    failed."""
    bad = result["shed"] + result["errors"] + result["mismatches"]
    bench.tally.attempted += result["attempted"]
    bench.tally.failed += bad
    if bad and len(bench.tally.reasons) < 8:
        bench.tally.reasons.append(
            "serve: %d shed, %d error responses, %d responses differ "
            "from the in-process library result"
            % (result["shed"], result["errors"], result["mismatches"]))
    if result["cache_hit_defects"]:
        run.log("KNOWN DEFECT: %d of %d serve responses differ from the "
                "library's from-scratch build and equal the daemon's "
                "cache-hit build (src/serve/server.cc caches the built "
                "model's description, whose floorplan is resolved, so a "
                "geometry perturb after a cache-hit load leaves the die "
                "size fixed)" % (result["cache_hit_defects"],
                                 result["attempted"]))


def serve_probes(bench, spans):
    """Returns the serve/fleet layer metrics."""
    sessions1 = ["--sessions=1", "--closed-seconds=%g" % PROBE_SECONDS]
    results = {}

    def probe(tag, daemon_args, loadgen_args, layer):
        fleet = daemon_args[0] == "fleet"
        span = spans.open("%s: %s" % (tag, " ".join(daemon_args)), layer)
        proc, directory = start_daemon(bench, tag, daemon_args)
        wait_ready(proc, directory, fleet)
        result = run_loadgen(bench, directory, loadgen_args)
        stats = stop_daemon(bench, proc, directory, fleet)
        result["heartbeat_misses"] = stats.get("heartbeatFailures", 0)
        spans.close(span)
        account_loadgen(bench, result)
        results[tag] = result

    probe("direct", ["serve", "--socket=front.sock", "--jobs=1"],
          sessions1, "serve")
    probe("fleet1", ["fleet", "--socket=front.sock"] + FLEET_ARGS,
          sessions1, "fleet")
    probe("fleet4", ["fleet", "--socket=front.sock"] + FLEET_ARGS,
          ["--sessions=%d" % FLEET_SESSIONS, "--open-rate=%d" % OPEN_RATE,
           "--open-seconds=%g" % PROBE_SECONDS,
           "--closed-seconds=%g" % PROBE_SECONDS], "fleet")

    direct, fleet1, fleet4 = results["direct"], results["fleet1"], \
        results["fleet4"]
    return {
        "serve.request_parse_ns": direct["parse_ns"],
        "serve.lib_us": direct["lib_us"],
        "serve.direct_p50_us": direct["closed_p50_us"],
        "serve.direct_p99_us": direct["closed_p99_us"],
        "serve.envelope_us": direct["closed_p50_us"] - direct["lib_us"],
        "fleet.hop_us": fleet1["closed_p50_us"] - direct["closed_p50_us"],
        "fleet.open_p50_us": fleet4["open_p50_us"],
        "fleet.open_p99_us": fleet4["open_p99_us"],
        "fleet.closed_rps": fleet4["closed_rps"],
        "serve.cache_hit_share": fleet4["cache_hits"] /
        max(1, fleet4["loads"]),
        "serve.shed_share": fleet4["shed"] / max(1, fleet4["attempted"]),
        "serve.cache_hit_defect_share":
        sum(r["cache_hit_defects"] for r in results.values()) /
        max(1, sum(r["attempted"] for r in results.values())),
        "serve.gen_late_us": fleet4["late_p99_us"],
        "fleet.heartbeat_misses": fleet4["heartbeat_misses"],
    }


# -------------------------------------------------------------------- main

def run_traced(bench):
    """Entry point from run.py: returns (units, values)."""
    workload = bench.args.workload
    spans = PySpans()
    top = spans.open("traced run " + workload, "bench")

    span = spans.open("untraced CLI runs", "bench")
    cli = cli_outputs(bench)
    spans.close(span)

    span = spans.open("perfbench_ledger", "bench")
    ledger_trace = os.path.join(bench.work, "ledger-spans.json")
    cmd = [bench.ledger, "--seed=%d" % bench.seed, "--jobs=%d" % run.NPROC,
           "--work=" + bench.work, "--trace-out=" + ledger_trace]
    if workload == "fit_measured":
        cmd.append("--targets=" + bench.measured_part())
    proc, out, err = run.run_to_files(cmd, bench.work, "ledger")
    spans.close(span)
    if proc.code != 0:
        raise run.BenchError("perfbench_ledger failed (exit %d): %s" %
                             (proc.code, err.decode(errors="replace")[-600:]))
    ledger = json.loads(out.splitlines()[-1])

    # The in-process rebuild must reproduce the CLI byte for byte.
    pairs = (("mc_campaign", "ledger-mc.out"),
             ("sched_trace", "ledger.trace"),
             ("check", "ledger-check.out"),
             ("fit", "ledger-fit.out"))
    for name, ledger_file in pairs:
        same = sha1_file(cli[name]) == sha1_file(
            os.path.join(bench.work, ledger_file))
        bench.tally.check(same, "in-process %s output differs from the "
                          "CLI's" % name)

    serve_metrics = serve_probes(bench, spans)
    spans.close(top)

    with open(ledger_trace) as f:
        events = json.load(f)["traceEvents"] + spans.spans
    trace_dir = os.path.join(bench.build_root, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-seed%d.json"
                              % (workload, bench.seed))
    with open(trace_path, "w") as f:
        json.dump({"traceEvents": events}, f)
    run.log("%s: spans written to %s" % (workload, trace_path))

    values = {name: ledger[name] for name in PER_LAYER_UNITS
              if name in ledger}
    values.update(serve_metrics)
    for layer, seconds in self_times(events).items():
        values[layer + ".self_s"] = seconds
    values["trace_overhead_pct"] = (
        ledger["fit.traced_wall_s"] / ledger["fit.untraced_wall_s"] - 1) \
        * 100.0
    missing = [name for name in PER_LAYER_UNITS if name not in values]
    if missing:
        raise run.BenchError("per-layer metrics missing: %s" % missing)
    return PER_LAYER_UNITS, values
