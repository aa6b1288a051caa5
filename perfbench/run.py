#!/usr/bin/env python3
"""Whodunit repo benchmark: profiled transactions per host second.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Builds the harness (perfbench/CMakeLists.txt) from the checkout's own
sources into .bench_build/, runs workload W for S wall seconds, checks
the simulated outputs, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of the kWhodunit configuration
(txn_per_s, cpu_us_per_txn, peak_rss_mb, setup_s). --trace 1 runs the
profiler ablation arms and a -pg build instead and reports the
per-layer metrics; see perfbench/README.md for what each one means.

--record-goldens re-records perfbench/goldens.json (the default-seed
outputs the check pins) for every workload and exits.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
GOLDENS = os.path.join(HERE, "goldens.json")

WORKLOADS = ("tpcw_closed", "httpd_churn", "tpcw_open_sampled", "proxy_seda")
DEFAULT_SEED = 1
SETUP_PROBES = 64
RUN_TIMEOUT_S = 150

# The profiler ladder each workload is ablated over in the traced run;
# adjacent arms differ by one layer. The last arm is the plain
# configuration the end-to-end metrics measure.
ARMS = {w: ("none", "csprof", "whodunit") for w in WORKLOADS}
ARMS["tpcw_open_sampled"] = ("none", "csprof", "whodunit_nolive", "whodunit")

# Namespaces gprof self time is rolled up into (<layer>.self_pct).
LAYERS = ("sim", "vm", "shm", "context", "callpath", "profiler", "obs", "apps",
          "db", "events", "seda", "util", "workload", "crosstalk", "std", "other")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------- build

def build(variant):
    """Configures (once) and builds one harness variant; returns its path."""
    flags = {"release": "-O2 -DNDEBUG", "gprof": "-O2 -DNDEBUG -pg"}[variant]
    bdir = os.path.join(BUILD, "perfbench-" + variant)
    log_path = os.path.join(BUILD, "build-%s.log" % variant)
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_CXX_FLAGS_RELEASE=" + flags]
        if variant == "gprof":
            cfg.append("-DCMAKE_EXE_LINKER_FLAGS=-pg")
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_harness",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("%s build failed (log: %s)" % (variant, log_path))
    return os.path.join(bdir, "perfbench_harness")


# ------------------------------------------------------------- running

def run_harness(exe, workload, seed, arm, budget_s, spans=False, cwd=None):
    """Runs one harness process; returns its rep records."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--arm", arm,
           "--budget-s", repr(budget_s)]
    if spans:
        cmd.append("--spans")
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=cwd)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("harness exited %d: %s" % (p.returncode, " ".join(cmd)))
    return [json.loads(line) for line in p.stdout.splitlines() if line.strip()]


def setup_seconds(exe, workload, seed):
    """Median time from spawning the harness to its first app call.

    Probes rotate over the CPUs this process may use (children inherit
    the affinity), so the median does not depend on which CPU of a
    shared host the run happened to start on.
    """
    cpus = sorted(os.sched_getaffinity(0))
    vals = []
    try:
        for i in range(SETUP_PROBES):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            t0 = time.monotonic_ns()
            p = subprocess.run([exe, "--workload", workload, "--seed", str(seed), "--probe"],
                               capture_output=True, text=True, timeout=30)
            if p.returncode != 0:
                fail("set-up probe failed: " + p.stderr)
            vals.append((json.loads(p.stdout)["first_app_call_ns"] - t0) * 1e-9)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(vals)


# --------------------------------------------------------- output check

def check_rep(workload, arm, rep, first, golden):
    """Returns the output-check violations of one rep (empty when correct)."""
    out, c, g = rep["out"], rep["counters"], rep["gauges"]
    bad = []

    def law(ok, what):
        if not ok:
            bad.append(what)

    law(rep["txns"] > 0, "no transaction completed")
    law(0 < c.get("sim.events_executed", 0) <= c.get("sim.events_scheduled", 0),
        "sim.events_executed must be in (0, sim.events_scheduled]")
    law(c.get("shm.section_cache.hits", 0) + c.get("shm.section_cache.misses", 0)
        == c.get("shm.critical_sections", 0),
        "shm.section_cache.hits + misses != shm.critical_sections")
    law(c.get("sampling.txns_sampled", 0) <= c.get("sampling.txns_total", 0),
        "sampling.txns_sampled > sampling.txns_total")
    if "live.txns_begun" in c:
        law(c["live.txns_begun"] == c.get("live.txns_published", 0)
            + c.get("live.txns_abandoned", 0) + g.get("live.inflight_txns", 0),
            "live begun != published + abandoned + inflight")
        law(c.get("live.txns_ingested", 0) == c.get("live.txns_published", 0),
            "live ingested != published")
    if workload.startswith("tpcw"):
        law(out["db_shm_flows"] == 0, "db_shm_flows != 0")
        law(out["sim_events"] == c.get("sim.events_executed"),
            "result sim_events != sim.events_executed")
    tracks = arm.startswith("whodunit")
    if workload == "httpd_churn" and tracks:
        law(out["queue_flow_detected"], "ap_queue flow not detected")
    if workload == "proxy_seda" and tracks:
        law(out["write_handler_context_count"] == 2, "write handler context count != 2")
        law(out["write_stage_context_count"] == 2, "WriteStage context count != 2")
    law(out == first["out"], "rep outputs differ from rep 0 (non-deterministic)")
    if golden is not None:
        for k, v in golden.items():
            law(out.get(k) == v, "%s = %r, golden %r" % (k, out.get(k), v))
    return bad


def tally(workload, arm, reps, golden, problems):
    """Checks every rep; returns (attempted, failed) transaction counts."""
    attempted = failed = 0
    for rep in reps:
        dropped = rep["counters"].get("live.txns_dropped", 0)
        attempted += rep["txns"] + dropped
        bad = check_rep(workload, arm, rep, reps[0], golden)
        if bad:
            problems.extend("%s/%s rep %d: %s" % (workload, arm, rep["rep"], b) for b in bad)
            failed += rep["txns"] + dropped
        else:
            failed += dropped
    return attempted, failed


def load_golden(workload, seed, arm):
    if seed != DEFAULT_SEED or arm != "whodunit":
        return None
    with open(GOLDENS) as f:
        return json.load(f)[workload]


# -------------------------------------------------------------- metrics

def host_cost(reps):
    """Per-rep host cost, averaged over the fastest tenth of timed reps.

    Rep 0 is the warm-up. Every rep simulates exactly the same traffic,
    so reps differ only in interference from other tenants of a shared
    host, which only ever adds time and comes and goes within a run.
    The fastest tenth is far steadier from run to run than the median,
    and less fragile than the single best rep (see perfbench/README.md).
    """
    timed = reps[1:] or reps

    def fastest_tenth_mean(values):
        values = sorted(values)
        return statistics.mean(values[:max(1, len(values) // 10)])

    return {
        "txn_per_s": 1.0 / fastest_tenth_mean(r["wall_s"] / r["txns"] for r in timed),
        "cpu_us_per_txn": fastest_tenth_mean(r["cpu_s"] * 1e6 / r["txns"] for r in timed),
        # Peak RSS after one rep from a fresh process: a function of the
        # simulated length, not of how many reps the budget allowed.
        "peak_rss_mb": reps[0]["maxrss_kb"] / 1024.0,
    }


def ratio(num, den):
    return num / den if den else 0.0


def gprof_layers(exe, workload, seed, budget_s):
    """Runs the -pg harness and rolls flat-profile self time up by namespace."""
    cwd = os.path.join(BUILD, "gprof-run", workload)
    os.makedirs(cwd, exist_ok=True)
    gmon = os.path.join(cwd, "gmon.out")
    if os.path.exists(gmon):
        os.remove(gmon)
    run_harness(exe, workload, seed, "whodunit", budget_s, cwd=cwd)
    p = subprocess.run(["gprof", "-b", "-p", exe, gmon], capture_output=True, text=True,
                       timeout=60)
    if p.returncode != 0:
        fail("gprof failed: " + p.stderr)
    self_s = dict.fromkeys(LAYERS, 0.0)
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
    for line in p.stdout.splitlines():
        m = row.match(line)
        if m:
            self_s[layer_of(m.group(2))] += float(m.group(1))
    total = sum(self_s.values())
    return {k: ratio(100.0 * v, total) for k, v in self_s.items()}


def layer_of(name):
    """Namespace layer of a demangled symbol, e.g. whodunit::sim::X -> sim."""
    prev = None
    while prev != name:  # strip template args, parameter lists, [clone ...]
        prev = name
        name = re.sub(r"<[^<>]*>|\([^()]*\)|\[[^\[\]]*\]", "", name)
    qualified = [t for t in name.split() if "::" in t]
    parts = (qualified[-1] if qualified else name).split("::")
    if parts[0] == "whodunit" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    if parts[0] in ("std", "__gnu_cxx"):
        return "std"
    return "other"


def write_trace(workload, seed, arm_reps):
    """Writes the harness spans as a Chrome trace; returns harness self %."""
    events, rep_ns, child_ns = [], 0, 0
    for tid, (arm, reps) in enumerate(arm_reps.items()):
        for rep in reps:
            spans = rep["spans"]
            for s in spans:
                dur = s["end_ns"] - s["start_ns"]
                events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": tid,
                               "ts": s["start_ns"] / 1e3, "dur": dur / 1e3,
                               "args": {"arm": arm, "rep": rep["rep"], "parent": s["parent"]}})
                if s["parent"] < 0:
                    rep_ns += dur
                elif spans[s["parent"]]["parent"] < 0:
                    child_ns += dur
    path = os.path.join(BUILD, "trace", "%s-seed%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    return ratio(100.0 * (rep_ns - child_ns), rep_ns)


def layer_metrics(workload, arm_reps, plain, self_pct, harness_pct):
    arms = ARMS[workload]
    cost = {arm: host_cost(reps) for arm, reps in arm_reps.items()}
    main = arm_reps["whodunit"][0]
    c, g, n = main["counters"], main["gauges"], main["txns"]

    def delta(key, hi, lo):
        return cost[hi][key] - cost[lo][key] if hi in cost and lo in cost else 0.0

    tracked = "whodunit_nolive" if "whodunit_nolive" in arms else "whodunit"
    hits, misses = c.get("shm.section_cache.hits", 0), c.get("shm.section_cache.misses", 0)
    dict_hits, dict_inserts = c.get("synopsis.dict_hits", 0), c.get("synopsis.dict_inserts", 0)
    m = {
        "sim.events_per_txn": ratio(c.get("sim.events_executed", 0), n),
        "sim.queue_peak_depth": g.get("sim.queue_peak_depth", 0),
        "sim.ladder_spills_per_txn": ratio(c.get("sim.ladder_spills", 0), n),
        "callpath.samples_per_txn": ratio(c.get("sampler.samples_taken", 0), n),
        "callpath.cpu_us_per_txn": delta("cpu_us_per_txn", "csprof", "none"),
        "callpath.rss_mb": delta("peak_rss_mb", "csprof", "none"),
        "context.appends_per_txn":
            ratio(c.get("context.tree_appends", 0) + c.get("context.appends", 0), n),
        "context.tree_nodes": g.get("context.tree_nodes", 0),
        "synopsis.dict_hit_ratio": ratio(dict_hits, dict_hits + dict_inserts),
        "synopsis.dict_lookups": dict_hits + dict_inserts,
        "profiler.sends_per_txn": ratio(c.get("profiler.sends_prepared", 0), n),
        "profiler.cct_switches_per_txn": ratio(c.get("profiler.cct_switches", 0), n),
        "sampling.sampled_ratio":
            ratio(c.get("sampling.txns_sampled", 0), c.get("sampling.txns_total", 0)),
        "sampling.txns_total": c.get("sampling.txns_total", 0),
        "tracking.cpu_us_per_txn": delta("cpu_us_per_txn", tracked, "csprof"),
        "tracking.rss_mb": delta("peak_rss_mb", tracked, "csprof"),
        "shm.sections_per_txn": ratio(c.get("shm.critical_sections", 0), n),
        "shm.section_cache.hit_ratio": ratio(hits, hits + misses),
        "shm.section_cache.lookups": hits + misses,
        "shm.flows_per_txn": ratio(c.get("shm.flows_detected", 0), n),
        "vm.emulated_insns_per_txn": ratio(c.get("vm.instructions_emulated", 0), n),
        "events.dispatched_per_txn": ratio(c.get("events.dispatched", 0), n),
        "seda.elements_per_txn": ratio(c.get("seda.elements_processed", 0), n),
        "live.txns_per_batch":
            ratio(c.get("live.txns_published", 0), c.get("live.batches_published", 0)),
        "live.batches_published": c.get("live.batches_published", 0),
        "live.attr.slices_per_txn": ratio(c.get("live.attr.slices", 0), n),
        "live.txns_dropped": c.get("live.txns_dropped", 0),
        "history.evicted_txns": c.get("history.evicted_txns", 0),
        "live.cpu_us_per_txn": delta("cpu_us_per_txn", "whodunit", "whodunit_nolive"),
        "live.rss_mb": delta("peak_rss_mb", "whodunit", "whodunit_nolive"),
        "base.cpu_us_per_txn": cost["none"]["cpu_us_per_txn"],
        "base.rss_mb": cost["none"]["peak_rss_mb"],
        "harness.self_pct": harness_pct,
        "trace.overhead_pct": 100.0 * ratio(plain["txn_per_s"] - cost["whodunit"]["txn_per_s"],
                                            plain["txn_per_s"]),
    }
    for arm in ("csprof", "whodunit"):  # the none arm is base.*
        m["arm.%s.cpu_us_per_txn" % arm] = cost[arm]["cpu_us_per_txn"]
        m["arm.%s.peak_rss_mb" % arm] = cost[arm]["peak_rss_mb"]
    for layer, pct in self_pct.items():
        m[layer + ".self_pct"] = pct
    return m


# ----------------------------------------------------------------- main

UNITS = {"txn_per_s": "1/s", "cpu_us_per_txn": "us", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name):
    for suffix, unit in (("_pct", "%"), ("_ratio", "ratio"), ("_us_per_txn", "us"),
                         ("_mb", "MB"), ("_per_txn", "1/txn"), ("_per_batch", "txn")):
        if name.endswith(suffix):
            return unit
    return "count"


def record_goldens(exe):
    goldens = {}
    for w in WORKLOADS:
        reps = run_harness(exe, w, DEFAULT_SEED, "whodunit", 0)
        if reps[0]["out"] != reps[1]["out"]:
            fail("%s: outputs differ between reps; not recording" % w)
        goldens[w] = reps[0]["out"]
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")
    print("recorded " + GOLDENS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no whodunit sources next to perfbench/ (expected %s/src)" % ROOT)
    if args.seed < 0:
        fail("--seed must be non-negative")

    # Both variants are built up front, so only a checkout's first run
    # pays for compilation, whichever --trace it asks for.
    exe = build("release")
    gprof_exe = build("gprof")
    if args.record_goldens:
        record_goldens(exe)
        return
    if args.workload is None:
        fail("--workload is required")
    w, seed = args.workload, args.seed
    problems = []

    if args.trace == 0:
        reps = run_harness(exe, w, seed, "whodunit", args.seconds)
        attempted, failed = tally(w, "whodunit", reps, load_golden(w, seed, "whodunit"), problems)
        values = host_cost(reps)
        values["setup_s"] = setup_seconds(exe, w, seed)
        print("%s seed %d: %d timed reps, %d txns per rep" % (w, seed, len(reps) - 1, reps[0]["txns"]))
    else:
        # Each arm, the untraced plain arm and the gprof run get half
        # the run length: a traced run takes (arms + 2) * seconds / 2.
        arms = ARMS[w]
        budget = args.seconds / 2
        arm_reps = {arm: run_harness(exe, w, seed, arm, budget, spans=True) for arm in arms}
        plain_reps = run_harness(exe, w, seed, "whodunit", budget)
        attempted = failed = 0
        for arm, reps in [*arm_reps.items(), ("whodunit", plain_reps)]:
            a, f = tally(w, arm, reps, load_golden(w, seed, arm), problems)
            attempted, failed = attempted + a, failed + f
        plain = host_cost(plain_reps)
        self_pct = gprof_layers(gprof_exe, w, seed, budget)
        values = layer_metrics(w, arm_reps, plain, self_pct, write_trace(w, seed, arm_reps))
        print("%s seed %d: arms %s, spans in .bench_build/trace/" % (w, seed, ", ".join(arms)))

    for p in problems[:20]:
        print("CHECK FAILED " + p)
    units = UNITS if args.trace == 0 else {k: layer_unit(k) for k in values}
    for k, v in values.items():
        print("  %-34s %14.6g %s" % (k, v, units[k]))
    print("  %-34s %14.6g (%d failed / %d attempted)"
          % ("fail_ratio", ratio(failed, attempted), failed, attempted))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
