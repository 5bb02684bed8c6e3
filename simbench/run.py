#!/usr/bin/env python3
"""ncp2sim benchmark: build the simulator, run one workload, report.

    python3 simbench/run.py --workload paper16 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds
simbench/ (the benchmark program plus the simulator libraries from src/) into
.bench_build (or $CARGO_TARGET_DIR); later runs rebuild incrementally.

--trace 0 prints every end-to-end metric, --trace 1 every per-layer
metric (from a separate run that also traces). Either way the last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Human-readable report lines come before it.

    python3 simbench/run.py --record-digests 0-20

re-records simbench/data/digests.json, the simulated-output digests the
report's digest_match compares against, for the given seeds.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
WORKLOADS = ["paper16", "scale256", "serve16", "fuzz_oracle"]

# 100 MHz simulated clock: one cycle is 10 ns.
CYCLE_US = 0.01
CYCLE_MS = 1e-5
# An open-loop cell is saturated when its backlog grows: the last
# completion lands this much later, relative to the arrival span, than
# a queue that keeps up would allow. Its p99 then measures the backlog,
# not the protocol, and is reported as saturated instead of a latency.
SATURATED_SPAN_RATIO = 1.1
# p99 is reported only for cells with at least this many requests.
MIN_P99_SAMPLES = 1000
# wall_s and setup_s are host seconds scaled to the host speed at which
# the reference kernel (cpp/refkernel.cc) takes this long. On a shared
# host the same simulation can take twice as long from one minute to
# the next; the kernel, timed around every simulation, slows with it.
REF_KERNEL_S = 0.010

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_exec_geomean_ms", "ms"),
]

PER_LAYER = [
    ("harness.job_s.p50", "s"),
    ("harness.job_s.max", "s"),
    ("harness.uncovered_frac.max", "ratio"),
    ("dsm.ctor_s", "s"),
    ("dsm.rss_after_ctor_mb", "MiB"),
    ("apps.plan_s", "s"),
    ("dsm.run_s", "s"),
    ("apps.validate_s", "s"),
    ("dsm.teardown_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.fiber_yields", "count"),
    ("sim.trace_records", "count"),
    ("sim.trace_overhead_frac", "ratio"),
    ("check.overhead_frac", "ratio"),
    ("dsm.bd.busy_pct", "%"),
    ("dsm.bd.data_pct", "%"),
    ("dsm.bd.synch_pct", "%"),
    ("dsm.bd.ipc_pct", "%"),
    ("dsm.bd.others_pct", "%"),
    ("dsm.diff_pct", "%"),
    ("dsm.fault_cycles.p50", "cycles"),
    ("dsm.fault_cycles.p99", "cycles"),
    ("dsm.lock_wait_cycles.p50", "cycles"),
    ("dsm.lock_wait_cycles.p99", "cycles"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.contention_share", "ratio"),
    ("ctrl.queue_depth.mean", "count"),
    ("ctrl.queue_depth.max", "count"),
    ("tmk.page_fetches", "count"),
    ("tmk.diffs_created", "count"),
    ("tmk.diffs_applied", "count"),
    ("tmk.diff_words", "count"),
    ("tmk.lock_acquires", "count"),
    ("tmk.lock_fast_ratio", "ratio"),
    ("tmk.prefetch_useful_ratio", "ratio"),
    ("aurc.updates_sent", "count"),
    ("aurc.update_words", "count"),
    ("aurc.wcache_hit_ratio", "ratio"),
    ("aurc.prefetch_useful_ratio", "ratio"),
    ("serve.req_p50_cycles", "cycles"),
    ("serve.req_p99_cycles", "cycles"),
    ("serve.queue_p99_cycles", "cycles"),
    ("serve.service_p99_cycles", "cycles"),
    ("serve.queue_share_p99", "ratio"),
    ("serve.capacity_kreq_s", "kreq/s"),
    ("model.paper_mae_pp", "pp"),
    ("sim.sched_ns_per_event.n16", "ns"),
    ("sim.sched_ns_per_event.n256", "ns"),
    ("net.send_ns", "ns"),
    ("dsm.diff_twin_ns", "ns"),
    ("dsm.diff_bits_ns", "ns"),
    ("replay.sched_share", "ratio"),
    ("replay.net_share", "ratio"),
    ("replay.diff_share", "ratio"),
    ("replay.unattributed_share", "ratio"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------------------- build

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simbench: simulator sources (src/) not found next to simbench/")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "simbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            log("simbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "simbench")


def drive(exe, workload, seed, seconds, trace):
    """Run the benchmark program; returns its records grouped by type."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        log("simbench: benchmark program timed out")
        sys.exit(3)
    if p.returncode:
        log("simbench: benchmark program exited with", p.returncode)
        sys.exit(3)
    recs = {}
    for line in p.stdout.splitlines():
        r = json.loads(line)
        recs.setdefault(r["type"], []).append(r)
    return recs


# ------------------------------------------------------------ analysis

class Run:
    """The benchmark program's records for one workload run."""

    def __init__(self, recs):
        self.meta = recs["meta"][0]
        self.specs = sorted(recs["simspec"], key=lambda r: r["i"])
        self.sims = recs.get("sim", [])
        self.quantiles = recs.get("trace_quantiles", [])
        self.spans = recs.get("span", [])
        self.replay = (recs.get("replay") or [None])[0]
        self.end = recs["end"][0]

    def batches(self, mode):
        """Per-batch lists of sim records (in sim order) for @mode."""
        by_rep = {}
        for s in self.sims:
            if s["mode"] == mode:
                by_rep.setdefault(s["rep"], []).append(s)
        return [sorted(v, key=lambda r: r["i"])
                for _, v in sorted(by_rep.items())]


def check(run, problems):
    """Correctness: validates, determinism, complete traces, accounting."""
    digests = {}
    for s in run.sims:
        label = run.specs[s["i"]]["label"]
        if "error" in s:
            problems.append(f"{label} [{s['mode']}]: {s['error'][:200]}")
            continue
        # Every batch, traced or not, oracle on or off, must reproduce
        # the same simulated outputs.
        prev = digests.setdefault(s["i"], s["digest"])
        if prev != s["digest"]:
            problems.append(f"{label}: simulated outputs differ between "
                            f"batches ({prev} vs {s['digest']})")
        if s.get("trace_dropped", 0):
            problems.append(f"{label}: trace dropped {s['trace_dropped']} "
                            "records")
        want = run.specs[s["i"]]["expected_requests"]
        if want and s.get("requests", 0) != want:
            problems.append(f"{label}: served {s.get('requests', 0)} of "
                            f"{want} requests")
    return digests


def load_json(name):
    path = os.path.join(DATA, name)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def digest_match(run, digests):
    """Compare against the recorded digests: (state, moved labels)."""
    rec = load_json("digests.json").get(run.meta["workload"], {})
    want = rec.get(str(run.meta["seed"]))
    if want is None:
        return "unrecorded", []
    got = [digests.get(i) for i in range(len(run.specs))]
    moved = [run.specs[i]["label"] for i, (g, w) in
             enumerate(zip(got, want)) if g != w]
    if len(got) != len(want):
        moved.append("(simulation count changed)")
    return ("true" if not moved else "false"), moved


def paper_error(run, batch):
    """Mean absolute error (pp) against the paper's bar labels."""
    ref = load_json("paper_reference.json")
    ticks = {}
    for s in batch:
        spec = run.specs[s["i"]]
        if spec["group"] == "paper" and "exec_ticks" in s:
            ticks[(spec["app"], spec["variant"])] = s["exec_ticks"]
    errs, fig5_10 = [], []
    for table, base in (("pct_of_base", "Base"), ("pct_of_tm_id", "I+D")):
        for app, cells in ref.get(table, {}).items():
            b = ticks.get((app, base))
            for variant, paper in cells.items():
                t = ticks.get((app, variant))
                if not b or t is None:
                    continue
                e = abs(100.0 * t / b - paper)
                errs.append(e)
                if table == "pct_of_base":
                    fig5_10.append(e)
    if not errs:
        return None
    return statistics.mean(errs), len(errs), statistics.mean(fig5_10), \
        len(fig5_10)


def serve_cells(run, batch):
    """Serving runs by (variant, mix) cell, then by load point."""
    cells = {}
    for s in batch:
        spec = run.specs[s["i"]]
        if spec["group"] not in ("closed", "open50", "open80") or \
                "requests" not in s:
            continue
        c = cells.setdefault((spec["variant"], spec["read_pct"]), {})
        c[spec["group"]] = s
    return cells


def serve_point(s):
    """(p50_us, p99_us or None, queue share, saturated, samples)."""
    share = ratio(s["queue_p99"], s["req_p99"])
    saturated = s["serve_span"] > SATURATED_SPAN_RATIO * s["arrival_span"]
    p99 = s["req_p99"] * CYCLE_US
    if s["requests"] < MIN_P99_SAMPLES or saturated:
        p99 = None
    return s["req_p50"] * CYCLE_US, p99, share, saturated, s["requests"]


def serving_metrics(run, batch):
    cells = serve_cells(run, batch)
    if not cells:
        return None
    out = {"rows": [], "p50": [], "p99": [], "p99_r80": [], "cap": []}
    for (variant, mix), c in sorted(cells.items()):
        closed = c.get("closed")
        cap = ratio(closed["requests"], closed["serve_span"]) * 1e8 / 1e3 \
            if closed else 0.0
        out["cap"].append(cap)
        row = [variant, mix, cap]
        for point, p99s in (("open50", out["p99"]),
                            ("open80", out["p99_r80"])):
            if point not in c:
                row.append(None)
                continue
            pt = serve_point(c[point])
            if point == "open50":
                out["p50"].append(pt[0])
            if pt[1] is not None:
                p99s.append(pt[1])
            row.append(pt)
        out["rows"].append(row)
    return out


def at_ref_speed(s, seconds):
    """@seconds measured around simulation record @s, at reference speed."""
    return seconds * REF_KERNEL_S / s["ref_s"]


def sim_medians(batches, fn):
    """Sum over simulations of each one's median of @fn over batches."""
    per_sim = {}
    for b in batches:
        for s in b:
            if "exec_ticks" in s:
                per_sim.setdefault(s["i"], []).append(fn(s))
    return sum(median(v) for v in per_sim.values())


def end_to_end(run, digests):
    plain = run.batches("plain")
    first = plain[0] if plain else []
    ok = [s for s in first if "exec_ticks" in s]

    def setup(s):
        return s["protocol_s"] + s["ctor_s"] + s["plan_s"]

    # The simulations of a batch run back to back, so their job spans
    # tile its wall time. Taking each simulation's median over the
    # run's batches before summing keeps a host slowdown that hits a
    # few simulations of one batch out of the batch time.
    m = {
        "wall_s": sim_medians(plain, lambda s: at_ref_speed(s, s["job_s"])),
        "setup_s": sim_medians(plain, lambda s: at_ref_speed(s, setup(s))),
        "peak_rss_mb": run.end["peak_rss_mb"],
        "sim_exec_geomean_ms": geomean(s["exec_ticks"] * CYCLE_MS
                                       for s in ok),
    }
    ref = median([s["ref_s"] for b in plain for s in b if "ref_s" in s])
    raw_wall = sim_medians(plain, lambda s: s["job_s"])
    lines = [f"{'wall_s':22s} {m['wall_s']:12.4f} s      "
             f"serial batch at reference speed: sum over {len(first)} "
             f"simulations of each one's median job time over "
             f"{len(plain)} batches",
             f"{'setup_s':22s} {m['setup_s']:12.4f} s      "
             "the same for makeProtocol + System construction + plan",
             f"{'  as measured':22s} {raw_wall:12.4f} s      wall; setup "
             f"{sim_medians(plain, setup):.4f} s; reference kernel "
             f"{ref * 1e3:.3f} ms (reference speed: "
             f"{REF_KERNEL_S * 1e3:.0f} ms)",
             f"{'peak_rss_mb':22s} {m['peak_rss_mb']:12.1f} MiB    "
             f"process peak at width {run.meta['width']}"]
    attempted = len(run.sims)
    failed = sum(1 for s in run.sims if "error" in s)
    lines.append(f"{'failed_frac':22s} {ratio(failed, attempted):12.4f} "
                 f"ratio  ({failed} of {attempted} simulations threw)")
    lines.append(f"{'sim_exec_geomean_ms':22s} "
                 f"{m['sim_exec_geomean_ms']:12.4f} ms     "
                 f"simulated, geomean over {len(ok)} simulations")
    pe = paper_error(run, first)
    if pe:
        lines.append(f"{'paper_mae_pp':22s} {pe[0]:12.2f} pp     "
                     f"{pe[1]} cells (figs 5-10 alone: {pe[2]:.2f} pp over "
                     f"{pe[3]} cells)")
    else:
        lines.append(f"{'paper_mae_pp':22s} {'n/a':>12s}        "
                     "no paper-reference cells in this workload")
    sm = serving_metrics(run, first)
    if sm:
        def g(vals, unit):
            return f"{geomean(vals):12.2f} {unit}" if vals else \
                f"{'n/a':>12s} {unit}"
        lines.append(f"{'req_p50_us':22s} {g(sm['p50'], 'us    ')} "
                     f"geomean over {len(sm['p50'])} cells at 50% load")
        lines.append(f"{'req_p99_us':22s} {g(sm['p99'], 'us    ')} "
                     f"geomean over {len(sm['p99'])} unsaturated cells "
                     "at 50% load")
        lines.append(f"{'req_p99_us.r80':22s} {g(sm['p99_r80'], 'us    ')} "
                     f"geomean over {len(sm['p99_r80'])} unsaturated cells "
                     "at 80% load")
        lines.append(f"{'capacity_kreq_s':22s} {g(sm['cap'], 'kreq/s')} "
                     "closed loop, simulated seconds, geomean over cells")
        lines.append("  cell          capacity  | 50% load: p50 us  p99 us  "
                     "q-share  n    | 80% load: p50 us  p99 us  q-share  n")
        for variant, mix, cap, *pts in sm["rows"]:
            cols = []
            for pt in pts:
                if pt is None:
                    cols.append(" " * 40)
                    continue
                p99 = "saturated" if pt[3] else (
                    f"{pt[1]:.1f}" if pt[1] is not None else "n<1000")
                cols.append(f"{pt[0]:10.1f} {p99:>9s} {pt[2]:7.2f} "
                            f"{pt[4]:5d}")
            lines.append(f"  {variant:6s} r{mix:<3d} {cap:9.2f}  | "
                         + "     | ".join(cols))
        lines.append("  (open-loop arrivals are pre-scheduled ticks, so "
                     "generator lateness is 0 by construction; latency is "
                     "timed from scheduled arrival)")
    else:
        for name in ("req_p50_us", "req_p99_us", "req_p99_us.r80",
                     "capacity_kreq_s"):
            lines.append(f"{name:22s} {'n/a':>12s}        "
                         "no serving cells in this workload")
    state, moved = digest_match(run, digests)
    lines.append(f"{'digest_match':22s} {state:>12s}        "
                 + (f"against the recorded seed-{run.meta['seed']} digests"
                    if state != "unrecorded" else
                    f"no recorded digests for seed {run.meta['seed']}"))
    for label in moved[:20]:
        lines.append(f"  moved: {label}")
    return m, lines


def per_layer(run):
    plain = run.batches("plain")
    traced = run.batches("traced")
    first = plain[0] if plain else []
    ok = [s for s in first if "exec_ticks" in s]
    m = {}

    def batch_median(fn):
        return median([fn([s for s in b if "exec_ticks" in s])
                       for b in plain])

    m["harness.job_s.p50"] = batch_median(
        lambda b: median([s["job_s"] for s in b]))
    m["harness.job_s.max"] = batch_median(
        lambda b: max([s["job_s"] for s in b], default=0))
    for name, key in (("dsm.ctor_s", "ctor_s"), ("apps.plan_s", "plan_s"),
                      ("apps.validate_s", "validate_s"),
                      ("dsm.teardown_s", "teardown_s")):
        m[name] = batch_median(lambda b, k=key: sum(s[k] for s in b))
    m["dsm.rss_after_ctor_mb"] = batch_median(
        lambda b: max([s["rss_after_ctor_mb"] for s in b], default=0))
    # System::run minus the plan() and validate() it calls: simulation.
    m["dsm.run_s"] = batch_median(lambda b: sum(
        s["run_s"] - s["plan_s"] - s["validate_s"] for s in b))
    events = sum(s["events"] for s in ok)
    m["sim.events"] = events
    m["sim.ns_per_event"] = ratio(m["dsm.run_s"] * 1e9, events)
    m["sim.fiber_yields"] = sum(s["yields"] for s in ok)
    tr_first = traced[0] if traced else []
    m["sim.trace_records"] = sum(s.get("trace_records", 0) for s in tr_first)

    def wall(mode):
        return sim_medians(run.batches(mode),
                           lambda s: at_ref_speed(s, s["job_s"]))

    m["sim.trace_overhead_frac"] = ratio(wall("traced"), wall("plain")) - 1
    nocheck = wall("nocheck")
    m["check.overhead_frac"] = ratio(wall("plain"), nocheck) - 1 \
        if nocheck else 0.0

    bd = [sum(s["bd"][k] for s in ok) for k in range(8)]
    for k, cat in enumerate(("busy", "data", "synch", "ipc", "others")):
        m[f"dsm.bd.{cat}_pct"] = 100 * ratio(bd[k], bd[7])
    m["dsm.diff_pct"] = 100 * ratio(bd[6], bd[7])

    q = run.quantiles[0] if run.quantiles else {}
    m["dsm.fault_cycles.p50"] = q.get("fault_p50", 0)
    m["dsm.fault_cycles.p99"] = q.get("fault_p99", 0)
    m["dsm.lock_wait_cycles.p50"] = q.get("lock_p50", 0)
    m["dsm.lock_wait_cycles.p99"] = q.get("lock_p99", 0)

    net = [sum(s["net"][k] for s in ok) for k in range(4)]
    m["net.messages"] = net[0]
    m["net.bytes"] = net[1]
    m["net.contention_share"] = ratio(net[3], net[2])
    m["ctrl.queue_depth.mean"] = ratio(
        sum(s.get("ctrl_depth_sum", 0) for s in tr_first),
        sum(s.get("ctrl_depth_n", 0) for s in tr_first))
    m["ctrl.queue_depth.max"] = max(
        [s.get("ctrl_depth_max", 0) for s in tr_first], default=0)

    def counter(name):
        return sum(s["counters"].get(name, 0) for s in ok)

    for c in ("page_fetches", "diffs_created", "diffs_applied",
              "diff_words", "lock_acquires"):
        m[f"tmk.{c}"] = counter(f"tmk.{c}")
    m["tmk.lock_fast_ratio"] = ratio(counter("tmk.lock_fast_grants"),
                                     counter("tmk.lock_acquires"))
    for proto in ("tmk", "aurc"):
        pf = counter(f"{proto}.prefetches")
        m[f"{proto}.prefetch_useful_ratio"] = \
            1 - ratio(counter(f"{proto}.prefetches_useless"), pf) if pf \
            else 0.0
    m["aurc.updates_sent"] = counter("aurc.updates_sent")
    m["aurc.update_words"] = counter("aurc.update_words")
    # Every write-cache miss claims an entry that later leaves as
    # exactly one update, so pushes = hits + updates sent.
    hits = counter("aurc.wcache_hits")
    m["aurc.wcache_hit_ratio"] = ratio(hits, hits + m["aurc.updates_sent"])

    # Serving: the 50%-load cells on serve16, every serving run elsewhere.
    serving = [s for s in ok if "requests" in s]
    at50 = [s for s in serving if run.specs[s["i"]]["group"] == "open50"]
    pts = at50 or serving
    m["serve.req_p50_cycles"] = geomean(s["req_p50"] for s in pts)
    m["serve.req_p99_cycles"] = geomean(s["req_p99"] for s in pts)
    m["serve.queue_p99_cycles"] = geomean(s["queue_p99"] for s in pts)
    m["serve.service_p99_cycles"] = geomean(s["service_p99"] for s in pts)
    m["serve.queue_share_p99"] = geomean(
        ratio(s["queue_p99"], s["req_p99"]) for s in pts)
    sm = serving_metrics(run, first)
    m["serve.capacity_kreq_s"] = geomean(sm["cap"]) if sm else 0.0
    pe = paper_error(run, first)
    m["model.paper_mae_pp"] = pe[0] if pe else 0.0

    rp = run.replay or {}
    m["sim.sched_ns_per_event.n16"] = rp.get("sched_ns_n16", 0)
    m["sim.sched_ns_per_event.n256"] = rp.get("sched_ns_n256", 0)
    m["net.send_ns"] = rp.get("net_send_ns", 0)
    m["dsm.diff_twin_ns"] = rp.get("diff_twin_ns", 0)
    m["dsm.diff_bits_ns"] = rp.get("diff_bits_ns", 0)
    # Replay attribution: calls x replayed ns per call, as a share of
    # the simulation time. Fabrics under 256 nodes use the 16-queue
    # scheduler cost, the nearest measured size.
    run_ns = m["dsm.run_s"] * 1e9
    sched_ns = sum(s["events"] * (m["sim.sched_ns_per_event.n256"]
                                  if run.specs[s["i"]]["nodes"] > 16
                                  else m["sim.sched_ns_per_event.n16"])
                   for s in ok)
    twin = sum(s.get("diffs", 0) for s in tr_first
               if not run.specs[s["i"]]["hw_diffs"])
    bits = sum(s.get("diffs", 0) for s in tr_first
               if run.specs[s["i"]]["hw_diffs"])
    m["replay.sched_share"] = ratio(sched_ns, run_ns)
    m["replay.net_share"] = ratio(net[0] * m["net.send_ns"], run_ns)
    m["replay.diff_share"] = ratio(twin * m["dsm.diff_twin_ns"] +
                                   bits * m["dsm.diff_bits_ns"], run_ns)
    m["replay.unattributed_share"] = 1 - m["replay.sched_share"] - \
        m["replay.net_share"] - m["replay.diff_share"]

    # Benchmark spans: what each simulation's lifecycle spans leave
    # uncovered of its job span.
    by_sim = {}
    for sp in run.spans:
        by_sim.setdefault(sp["i"], []).append(sp)
    uncovered = []
    for i, spans in sorted(by_sim.items()):
        job = next(s for s in spans if s["name"] == "job")
        covered = sum(s["end"] - s["start"] for s in spans
                      if s["parent"] == "job")
        dur = job["end"] - job["start"]
        uncovered.append((run.specs[i]["label"], dur, dur - covered,
                          ratio(dur - covered, dur)))
    m["harness.uncovered_frac.max"] = max((u[3] for u in uncovered),
                                          default=0.0)

    dropped = sum(s.get("trace_dropped", 0) for b in traced for s in b)
    lines = [f"{name:30s} {m[name]:16.6g} {unit}"
             for name, unit in PER_LAYER]
    lines.append(f"trace_dropped == {dropped} over {len(traced)} traced "
                 f"batches ({m['sim.trace_records']} records in the first)")
    lines.append(f"replay attribution of dsm.run_s = {m['dsm.run_s']:.4f} s:"
                 f" scheduler {m['replay.sched_share']:.3f}, mesh send "
                 f"{m['replay.net_share']:.3f}, diffs "
                 f"{m['replay.diff_share']:.3f}, unattributed "
                 f"{m['replay.unattributed_share']:.3f}")
    lines.append("lifecycle spans per simulation (first traced batch): "
                 "job_s, uncovered_s, uncovered share")
    for label, dur, unc, frac in uncovered:
        lines.append(f"  {label:34s} {dur:9.5f} {unc:9.6f} {frac:7.4f}")
    return m, lines


def report(run, trace):
    problems = []
    digests = check(run, problems)
    meta = run.meta
    print(f"simbench {meta['workload']} seed {meta['seed']}: width "
          f"{meta['width']}, {meta['scale']}; "
          f"{len(run.batches('plain'))} untraced batches"
          + (f", {len(run.batches('traced'))} traced" if trace else "")
          + f" in {run.end['elapsed_s']:.1f} s")
    if trace:
        metrics, lines = per_layer(run)
        names = PER_LAYER
    else:
        metrics, lines = end_to_end(run, digests)
        names = END_TO_END
    for line in lines:
        print(line)
    for p in problems[:50]:
        print("PROBLEM:", p)
    attempted = len(run.sims)
    failed = sum(1 for s in run.sims if "error" in s)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result))


def record_digests(exe, seeds):
    data = load_json("digests.json")
    for w in WORKLOADS:
        for seed in seeds:
            run = Run(drive(exe, w, seed, 1, 0))
            problems = []
            digests = check(run, problems)
            if problems:
                log("simbench: cannot record", w, seed, problems[:3])
                sys.exit(4)
            data.setdefault(w, {})[str(seed)] = \
                [digests[i] for i in range(len(run.specs))]
            log(f"recorded {w} seed {seed}: {len(run.specs)} simulations")
    write_digests(data)


def write_digests(data):
    """One line per (workload, seed): the per-simulation digests."""
    rows = []
    for w in sorted(data):
        seeds = sorted(data[w], key=int)
        body = ",\n".join(f'    "{s}": {json.dumps(data[w][s])}'
                           for s in seeds)
        rows.append(f'  "{w}": {{\n{body}\n  }}')
    with open(os.path.join(DATA, "digests.json"), "w") as f:
        f.write("{\n" + ",\n".join(rows) + "\n}\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", metavar="SEEDS",
                    help="re-record data/digests.json for e.g. 0-20")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")
    if not args.record_digests and not args.workload:
        ap.error("--workload is required")
    exe = build()
    if args.record_digests:
        record_digests(exe, parse_seeds(args.record_digests))
        return
    report(Run(drive(exe, args.workload, args.seed, args.seconds,
                     args.trace)), args.trace)


if __name__ == "__main__":
    main()
