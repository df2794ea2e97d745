#!/usr/bin/env python3
"""Simulator benchmark: host time of the μManycore simulator, end to end
and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the harness plus the simulator library from src/)
into .bench_build/, then runs one workload serially on one thread.

--trace 0 measures the end-to-end metrics: set-ups and untraced calls
of the public runner for S seconds, each bracketed by a host-speed
calibration loop that scales the times (see end_to_end); medians.
--trace 1 measures the per-layer metrics: untraced runner calls for S
seconds, then the harness's own copy of the run loop with a
batch-of-one SimProfiler, a 64-event batch pass for the apportioned
shares, a batch-of-one pass on the held-out seed, and the bare kernel
loop. Every simulation is checked (drained, roots conserved,
ledger clean, digest stable and equal between traced and untraced runs).

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
README.md explains the workloads, the metrics and the module map.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
BUILD_TYPE = "RelWithDebInfo"

DEFAULT_SEED = 0x5EED
# Never used while the benchmark was tuned; only the traced pass runs
# it, so later claims can be checked on data not used for tuning.
HELDOUT_SEED = 0x7A11

# Shared by every workload: the fig14 methodology (warmup trimmed,
# bursty Alibaba MMPP arrivals, drain after the load window).
COMMON = {"warmup_ms": 30, "measure_ms": 450}

WORKLOADS = {
    # NoC-bound baseline: software dispatcher and context switch, 2D
    # mesh, global coherence; the deepest event heap.
    "sc_mesh_15k": {"machine": "serverclass", "servers": 10,
                    "packages": 1, "rps": 15000},
    # The paper's machine: leaf-spine, hardware RQ and context switch;
    # bypasses most NoC work, exercises the RPC/NIC and core paths.
    "um_hwrq_15k": {"machine": "umanycore", "servers": 10,
                    "packages": 1, "rps": 15000},
    # The only path through runRackExperiment, the LB, RackNet and the
    # observer layer (attribution ledger + rack sampler).
    "rack4_po2c_attrib": {"machine": "umanycore", "servers": 2,
                          "packages": 4, "rps": 10000,
                          "replica": "po2c", "net": "rdma",
                          "attrib": 1, "sample_us": 100},
}

SETUP_REPS = 16  # per runner call
MIN_RUN_REPS = 3
KERNEL_EVENTS = 4_000_000
KERNEL_WIDTH = 600  # about the p99 heap depth of sc_mesh_15k
SUBPROCESS_TIMEOUT_S = 150
# Calibration loop length, and the speed end-to-end times are scaled
# to (ns per event; this loop's typical speed on the host the bounds
# were set on).
CALIB_EVENTS = 1_000_000
CALIB_NS = 125.0

# Event source -> module (src/<module>). Self times of all sources sum
# to the traced loop's wall time; bench.self_sum_frac checks it.
MODULES = {
    "noc": ["noc_hop", "noc_deliver"],
    "rpc": ["rpc_nic", "net_external"],
    "sched": ["sched_dispatch", "ctx_switch"],
    "cpu": ["core_run"],
    "mem": ["mem_coherence"],
    "workload": ["loadgen", "req_complete"],
    "obs": ["sampler"],
    "other": ["kernel", "fault", "client_retry", "other"],
}


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
        # Configured once; the build step re-runs CMake when a
        # CMakeLists.txt changes.
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def harness(cmd, cfg, **extra):
    args = [HARNESS, cmd]
    args += ["%s=%s" % kv for kv in sorted({**cfg, **extra}.items())]
    proc = subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workload_config(name, seed):
    return {**COMMON, **WORKLOADS[name], "seed": seed}


def nominal_roots(cfg):
    return cfg["rps"] * cfg["servers"] * cfg["packages"] * \
        cfg["measure_ms"] / 1000.0


def tree_sha256():
    """Content hash of the simulator and benchmark sources: the
    provenance that survives a checkout without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_state():
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or \
            os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        return None, None
    sha = git("rev-parse", "HEAD").stdout.strip() or None
    dirty = bool(git("status", "--porcelain", "--", "src",
                     "perfbench").stdout.strip())
    return sha, dirty


def provenance(args, cfg, build_info):
    sha, dirty = git_state()
    return {"git_sha": sha, "git_dirty": dirty,
            "tree_sha256": tree_sha256(), "build": build_info,
            "nproc": os.cpu_count(), "seed": args.seed,
            "heldout_seed": HELDOUT_SEED, "workload": args.workload,
            "params": cfg, "jobs": 1, "shards": 1}


def refuse_reason(build_info):
    if build_info.get("type") == "Debug" or not build_info.get("ndebug"):
        return "a Debug (assertion-enabled) build"
    if build_info.get("sanitizer") != "none":
        return "a sanitized build"
    if build_info.get("invariants"):
        return "an invariant-checked build"
    return None


def run_failures(r, attrib):
    """Output-check failures of one simulation, [] when it passes."""
    bad = []
    if r.get("drained") is False or r["in_flight"] != 0:
        bad.append("did not drain")
    if r["observed"] != r["completed"] + r["rejected"] or \
            r["completed"] == 0:
        bad.append("roots not conserved")
    if attrib and r["ledger_mismatches"] != 0:
        bad.append("%d ledger mismatches" % r["ledger_mismatches"])
    if "src_ns" in r:
        self_sum = sum(r["src_ns"].values()) / (r["loop_s"] * 1e9)
        if abs(self_sum - 1.0) > 0.01:
            bad.append("per-source self times sum to %.4f of the loop"
                       % self_sum)
    return bad


class Checker:
    """Counts checked simulations; runs of one digest group (same code,
    same seed, same observers) must share one stats digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def check(self, what, r, group, attrib):
        self.attempted += 1
        if r is None:
            bad = ["harness error"]
        else:
            bad = run_failures(r, attrib)
            first = self.digests.setdefault(group, r["digest"])
            if r["digest"] != first:
                bad.append("digest %s != %s" % (r["digest"], first))
        if bad:
            self.failed += 1
            log("FAIL %s: %s" % (what, "; ".join(bad)))
        return not bad


class Budget:
    """--seconds of repetitions: another one starts only if it should
    end in time, judged by the length of the last one."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds
        self.last = time.monotonic()
        self.step = 0.0

    def another(self):
        now = time.monotonic()
        self.step, self.last = now - self.last, now
        return now + self.step <= self.end


def calib_ns():
    """Host speed now: ns per event of the harness's calibration loop."""
    r = harness("calib", {}, events=CALIB_EVENTS)
    if r is None:
        raise BenchError("calibration loop failed")
    return r["ns_per_event"]


def end_to_end(args, cfg, chk):
    """Set-ups and untraced runner calls for --seconds, each bracketed
    by the calibration loop. Every time is scaled by CALIB_NS over the
    mean of its two brackets, so it reads in seconds of a host running
    the loop at CALIB_NS: the speed of a shared host drifts by tens of
    percent over minutes, and the scaling divides that drift out of
    the medians."""
    attrib = bool(cfg.get("attrib"))
    nominal = nominal_roots(cfg)
    setups, rss, runs, walls, rates, calib = [], [], [], [], [], []
    calib.append(calib_ns())
    budget = Budget(args.seconds)
    while budget.another() or len(runs) < MIN_RUN_REPS:
        setup = harness("setup", cfg, reps=SETUP_REPS)
        r = harness("run", cfg)
        if setup is None or r is None:
            chk.check("run", None, "main", attrib)
            break
        calib.append(calib_ns())
        scale = CALIB_NS / ((calib[-2] + calib[-1]) / 2)
        setups += [t * scale for t in setup["setup_s"]]
        rss.append(setup["peak_rss_mb"])
        if chk.check("run %d" % len(runs), r, "main", attrib):
            runs.append(r)
            walls.append(r["wall_s"] * scale * nominal / r["completed"])
            rates.append(r["completed"] / (r["wall_s"] * scale))
    if not runs:
        raise BenchError("no run passed the output check")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "req_per_host_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, runs[0], {"reps": len(runs),
                              "setup_reps": len(setups),
                              "raw_wall_s": [r["wall_s"] for r in runs],
                              "calib_ns": calib}


def module_layer(trace, prefix=""):
    ev, ns = trace["src_events"], trace["src_ns"]
    known = {s for srcs in MODULES.values() for s in srcs}
    if set(ev) != known:
        raise BenchError("event sources %s not in the module map"
                         % sorted(set(ev) ^ known))
    loop_ns = trace["loop_s"] * 1e9
    out = {}
    for mod, srcs in MODULES.items():
        out[prefix + mod + ".self_s"] = sum(ns[s] for s in srcs) / 1e9
        out[prefix + mod + ".self_frac"] = \
            sum(ns[s] for s in srcs) / loop_ns
    return out


def per_source_ns(trace, srcs):
    n = sum(trace["src_events"][s] for s in srcs)
    return sum(trace["src_ns"][s] for s in srcs) / n if n else 0.0


def traced(args, cfg, chk):
    attrib = bool(cfg.get("attrib"))
    # Untraced runner calls for --seconds, alternating with
    # observers-off calls on the attributed workload.
    untraced, obs_off = [], []
    budget = Budget(args.seconds)
    i = 0
    while budget.another() or i < MIN_RUN_REPS:
        r = harness("run", cfg)
        if chk.check("run %d" % i, r, "main", attrib):
            untraced.append(r)
        if attrib:
            off_cfg = {**cfg, "attrib": 0}
            off_cfg.pop("sample_us", None)
            r = harness("run", off_cfg)
            if chk.check("observers-off run %d" % i, r, "off", False):
                obs_off.append(r)
        i += 1
    t1 = harness("trace", cfg, batch=1)
    chk.check("trace batch=1", t1, "main", attrib)
    t64 = harness("trace", cfg, batch=64)
    chk.check("trace batch=64", t64, "main", attrib)
    held = harness("trace", {**cfg, "seed": HELDOUT_SEED}, batch=1)
    chk.check("held-out trace", held, "heldout", attrib)
    kern = harness("kernel", {}, events=KERNEL_EVENTS,
                   width=KERNEL_WIDTH, seed=args.seed)
    calib = calib_ns()
    if not untraced or None in (t1, t64, held, kern):
        raise BenchError("traced pass incomplete")

    wall = statistics.median(r["wall_s"] for r in untraced)
    ev = t1["src_events"]
    m = {
        "sim.events": t1["events"],
        "sim.ns_per_event": wall * 1e9 / t1["events"],
        "sim.queue_depth_p99": t1["queue_depth_p99"],
        "sim.kernel_ns_per_event": kern["ns_per_event"],
        "noc.hop_events": ev["noc_hop"],
        "noc.deliver_events": ev["noc_deliver"],
        "noc.ns_per_hop": per_source_ns(t1, ["noc_hop"]),
        "noc.messages": t1["noc_messages"],
        "noc.link_util_max": t1["link_util_max"],
        "rpc.nic_events": ev["rpc_nic"],
        "rpc.external_events": ev["net_external"],
        "rpc.ns_per_event": per_source_ns(t1, MODULES["rpc"]),
        "sched.dispatch_events": ev["sched_dispatch"],
        "sched.ctx_switch_events": ev["ctx_switch"],
        "sched.ns_per_ctx_switch": per_source_ns(t1, ["ctx_switch"]),
        "sched.dispatcher_util": t1["dispatcher_util"],
        "sched.queued_us": t1["queued_us"],
        "cpu.core_run_events": ev["core_run"],
        "cpu.utilization": t1["cpu_utilization"],
        "mem.coherence_events": ev["mem_coherence"],
        "workload.loadgen_events": ev["loadgen"],
        "workload.complete_events": ev["req_complete"],
        "obs.sampler_events": ev["sampler"],
        "obs.attrib_overhead_frac":
            wall / statistics.median(r["wall_s"] for r in obs_off) - 1.0
            if obs_off else 0.0,
        "obs.ledger_mismatches": t1["ledger_mismatches"],
        "arch.setup_s": t1["arch_setup_s"],
        "rack.setup_s": t1["rack_setup_s"],
        "rack.lb_probes": t1["lb_probes"],
        "rack.net_messages": t1["rack_net_messages"],
        "rack.hop_avg_us": t1["rack_hop_avg_us"],
        "driver.collect_s": t1["collect_s"],
        "driver.run_peak_rss_mb":
            statistics.median(r["peak_rss_mb"] for r in untraced),
        "bench.trace_overhead_frac": t1["wall_s"] / wall - 1.0,
        "bench.calib_ns_per_event": calib,
        "bench.self_sum_frac":
            sum(t1["src_ns"].values()) / (t1["loop_s"] * 1e9),
        "heldout.sim.events": held["events"],
    }
    m.update(module_layer(t1))
    apportioned = module_layer(t64)
    for mod in MODULES:
        m[mod + ".apportioned_frac"] = apportioned[mod + ".self_frac"]
    held_layer = module_layer(held, "heldout.")
    for mod in ("noc", "rpc", "sched", "cpu"):
        m["heldout.%s.self_frac" % mod] = \
            held_layer["heldout.%s.self_frac" % mod]
    return m, t1, {"untraced_reps": len(untraced),
                   "digest_traced": t1["digest"],
                   "digest_batch64": t64["digest"],
                   "digest_untraced": untraced[0]["digest"],
                   "heldout_digest": held["digest"]}


def metric_units(trace):
    """Metric name -> unit for this pass, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=lambda s: int(s, 0),
                    default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        # One simulation at a time, pinned so it never migrates
        # between CPUs mid-measurement.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        cfg = workload_config(args.workload, args.seed)
        # A one-event kernel loop: the cheapest call that reports how
        # the harness was built.
        probe = harness("kernel", {}, events=1, width=1, seed=0)
        if probe is None:
            raise BenchError("harness does not run")
        prov = provenance(args, cfg, probe["build"])
        print("provenance " + json.dumps(prov, sort_keys=True))
        why = refuse_reason(probe["build"])
        if why is not None:
            raise BenchError("refusing to report numbers from " + why)

        units = metric_units(args.trace)
        chk = Checker()
        run = traced if args.trace else end_to_end
        metrics, sample, info = run(args, cfg, chk)
        if set(metrics) != set(units):
            raise BenchError("metrics %s differ from BENCHMARK.json"
                             % sorted(set(metrics) ^ set(units)))
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 1

    check = {"digest": sample["digest"], "sim_p99_ms": sample["sim_p99_ms"],
             "sim_throughput_rps": sample["sim_throughput_rps"],
             "sim_events": sample["events"]}
    print("check " + json.dumps({**check, **info}, sort_keys=True))
    print("failed_frac %.6g frac (%d of %d runs)"
          % (chk.failed / chk.attempted, chk.failed, chk.attempted))
    for k, unit in units.items():
        print("%-28s %.6g %s" % (k, metrics[k], unit))
    result = {"correct": chk.failed == 0, "attempted": chk.attempted,
              "failed": chk.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
