/**
 * @file
 * simbench: runs one benchmark workload for a time budget and
 * writes one JSON object per line to stdout (per-simulation records
 * with host times and reference-kernel readings, replay kernels,
 * spans). simbench/run.py builds this program, runs it and turns the
 * records into metrics.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *   simbench --calibrate-serve   # print serve16 open-loop gaps
 *
 * --trace 0 repeats the workload's batch untraced until the budget is
 * spent. --trace 1 alternates untraced batches, traced batches (ring
 * sized so nothing is dropped) and, on fuzz_oracle, oracle-off batches,
 * then times the layer replay kernels on the first traced batch.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lifecycle.hh"
#include "replay.hh"
#include "sim/logging.hh"
#include "workloads.hh"

using namespace simbench;

namespace
{

/** One JSON object, built field by field and printed as a line. */
class Line
{
  public:
    explicit Line(const char *type) { str("type", type); }

    Line &
    str(const char *k, const std::string &v)
    {
        key(k);
        os_ << '"';
        for (char c : v) {
            if (c == '"' || c == '\\')
                os_ << '\\' << c;
            else if (static_cast<unsigned char>(c) < 0x20)
                os_ << ' ';
            else
                os_ << c;
        }
        os_ << '"';
        return *this;
    }

    Line &
    num(const char *k, double v)
    {
        key(k);
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        os_ << buf;
        return *this;
    }

    Line &
    u64(const char *k, std::uint64_t v)
    {
        key(k);
        os_ << v;
        return *this;
    }

    /** A nested object of numbers. */
    Line &
    obj(const char *k, const std::map<std::string, double> &m)
    {
        key(k);
        os_ << '{';
        bool first = true;
        for (const auto &[n, v] : m) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            os_ << (first ? "" : ",") << '"' << n << "\":" << buf;
            first = false;
        }
        os_ << '}';
        return *this;
    }

    /** A nested array of unsigned integers. */
    Line &
    arr(const char *k, const std::vector<std::uint64_t> &v)
    {
        key(k);
        os_ << '[';
        for (std::size_t i = 0; i < v.size(); ++i)
            os_ << (i ? "," : "") << v[i];
        os_ << ']';
        return *this;
    }

    void emit() { std::cout << os_.str() << "}\n"; }

  private:
    void
    key(const char *k)
    {
        os_ << (first_ ? "{" : ",") << '"' << k << "\":";
        first_ = false;
    }

    std::ostringstream os_;
    bool first_ = true;
};

void
emitMeta(const WorkloadSpec &w, std::uint64_t seed, unsigned seconds,
         bool trace)
{
    Line l("meta");
    // Simulations run one at a time: engine width 1 on every workload.
    l.str("workload", w.name).u64("seed", seed).u64("seconds", seconds)
        .u64("trace", trace).u64("width", 1).str("scale", w.scale)
        .u64("sims", w.sims.size());
    l.emit();
    for (std::size_t i = 0; i < w.sims.size(); ++i) {
        const SimSpec &s = w.sims[i];
        Line d("simspec");
        d.u64("i", i).str("label", s.label).str("app", s.app)
            .str("variant", s.variant).str("group", s.group)
            .u64("read_pct", s.read_pct).u64("nodes", s.cfg.num_procs)
            .u64("expected_requests", s.expected_requests)
            .u64("hw_diffs", s.cfg.mode.hw_diffs)
            .u64("check", s.cfg.check);
        d.emit();
    }
}

void
emitSim(const char *mode, unsigned rep, std::size_t i, const SimOutcome &o)
{
    Line l("sim");
    l.str("mode", mode).u64("rep", rep).u64("i", i);
    if (!o.error.empty()) {
        l.str("error", o.error);
        l.emit();
        return;
    }
    char digest[20];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, o.digest);
    l.num("job_s", o.job_s).num("protocol_s", o.protocol_s)
        .num("ctor_s", o.ctor_s).num("plan_s", o.plan_s)
        .num("run_s", o.run_s).num("validate_s", o.validate_s)
        .num("teardown_s", o.teardown_s)
        .num("rss_after_ctor_mb", o.rss_after_ctor_mb)
        .num("ref_s", o.ref_s)
        .u64("exec_ticks", o.exec_ticks).str("digest", digest)
        .u64("events", o.events).u64("yields", o.yields)
        .arr("bd", std::vector<std::uint64_t>(o.bd, o.bd + 8))
        .arr("net", {o.net.messages, o.net.bytes, o.net.latency_cycles,
                     o.net.contention_cycles})
        .obj("counters", o.counters);
    if (o.requests) {
        l.u64("requests", o.requests).u64("req_p50", o.req_p50)
            .u64("req_p99", o.req_p99).u64("queue_p99", o.queue_p99)
            .u64("service_p99", o.service_p99)
            .u64("serve_span", o.serve_span)
            .u64("arrival_span", o.arrival_span);
    }
    if (o.traced) {
        const TraceStats &t = o.trace;
        std::uint64_t diffs = 0;
        for (std::uint64_t c : t.diff_words)
            diffs += c;
        l.u64("trace_records", t.records).u64("trace_dropped",
                                                o.trace_dropped)
            .u64("fault_n", t.fault_cycles.count())
            .u64("lock_n", t.lock_wait_cycles.count())
            .num("ctrl_depth_sum", t.ctrl_depth_sum)
            .u64("ctrl_depth_n", t.ctrl_depth_samples)
            .u64("ctrl_depth_max", t.ctrl_depth_max)
            .u64("diffs", diffs).u64("msgs", t.msgs.size());
    }
    l.emit();
}

/** Batch-level fault and lock-wait quantiles (merged sketches). */
void
emitTraceQuantiles(const std::vector<SimOutcome> &out)
{
    sim::QuantileSketch fault, lock;
    for (const SimOutcome &o : out) {
        fault.merge(o.trace.fault_cycles);
        lock.merge(o.trace.lock_wait_cycles);
    }
    Line l("trace_quantiles");
    l.u64("fault_n", fault.count())
        .u64("fault_p50", fault.quantile(1, 2))
        .u64("fault_p99", fault.quantile(99, 100))
        .u64("lock_n", lock.count())
        .u64("lock_p50", lock.quantile(1, 2))
        .u64("lock_p99", lock.quantile(99, 100));
    l.emit();
}

/// Replay at most this many messages per kernel: enough for a stable
/// per-call time, few enough that a 256-node scheduler replay stays
/// well under a second.
constexpr std::size_t kReplayMsgs = 200000;

/**
 * Concatenate the traced message streams of every simulation on one
 * fabric geometry, each shifted past the previous one's last tick, so
 * a single replay sees them back to back. Each stream contributes a
 * prefix in proportion to its length, kReplayMsgs in all at most.
 */
std::vector<MsgRec>
joinStreams(const std::vector<const std::vector<MsgRec> *> &streams)
{
    std::size_t total = 0;
    for (const auto *s : streams)
        total += s->size();
    const double keep =
        total > kReplayMsgs ? static_cast<double>(kReplayMsgs) /
                                  static_cast<double>(total)
                            : 1.0;
    std::vector<MsgRec> all;
    sim::Tick base = 0;
    for (const auto *s : streams) {
        const auto n = static_cast<std::size_t>(
            std::ceil(keep * static_cast<double>(s->size())));
        sim::Tick last = 0;
        for (std::size_t k = 0; k < n; ++k) {
            MsgRec m = (*s)[k];
            last = std::max(last, m.tick);
            m.tick += base;
            all.push_back(m);
        }
        base += last + 1;
    }
    return all;
}

void
emitReplay(const WorkloadSpec &w, const std::vector<SimOutcome> &traced,
           std::uint64_t seed)
{
    std::vector<const std::vector<MsgRec> *> all_streams;
    std::map<std::pair<unsigned, unsigned>,
             std::vector<const std::vector<MsgRec> *>>
        by_fabric;
    std::map<std::pair<unsigned, unsigned>, dsm::SysConfig> fabric_cfg;
    // Both diff kernels replay the workload's whole diff-size
    // distribution, whichever engine built each diff, so each has a
    // per-call cost even where only one engine runs (Base: twins only).
    std::vector<std::uint64_t> diff_hist;
    for (std::size_t i = 0; i < w.sims.size(); ++i) {
        const SimOutcome &o = traced[i];
        if (!o.error.empty())
            continue;
        const dsm::SysConfig &cfg = w.sims[i].cfg;
        const auto key = std::make_pair(cfg.num_procs, cfg.mesh_cluster);
        all_streams.push_back(&o.trace.msgs);
        by_fabric[key].push_back(&o.trace.msgs);
        fabric_cfg[key] = cfg;
        diff_hist.resize(
            std::max(diff_hist.size(), o.trace.diff_words.size()), 0);
        for (std::size_t k = 0; k < o.trace.diff_words.size(); ++k)
            diff_hist[k] += o.trace.diff_words[k];
    }

    const std::vector<MsgRec> joined = joinStreams(all_streams);
    Line l("replay");
    l.u64("sched_events", joined.size())
        .num("sched_ns_n16", replaySchedNsPerEvent(16, joined))
        .num("sched_ns_n256", replaySchedNsPerEvent(256, joined));
    double send_ns = 0;
    std::uint64_t sends = 0;
    for (const auto &[key, streams] : by_fabric) {
        const std::vector<MsgRec> s = joinStreams(streams);
        send_ns += replayMeshSendNs(fabric_cfg[key], s) *
                   static_cast<double>(s.size());
        sends += s.size();
    }
    l.num("net_send_ns", sends ? send_ns / static_cast<double>(sends) : 0)
        .u64("net_sends", sends)
        .num("diff_twin_ns", replayDiffNs(diff_hist, true, seed))
        .num("diff_bits_ns", replayDiffNs(diff_hist, false, seed));
    l.emit();
}

void
emitSpans(const std::vector<SimOutcome> &out)
{
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (const Span &s : out[i].spans) {
            Line l("span");
            l.u64("i", i).str("name", s.name)
                .str("parent", s.parent ? s.parent : "")
                .num("start", s.start).num("end", s.end);
            l.emit();
        }
    }
}

/** Print each serve16 cell's open-loop gaps from its closed-loop run. */
int
calibrateServe()
{
    const std::vector<SimSpec> cells = serveClosedCells(1);
    std::vector<std::size_t> caps;
    const auto out = runBatch(cells, RunOptions{}, caps, Clock::now());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SimOutcome &o = out[i];
        if (!o.error.empty() || !o.serve_span)
            ncp2_fatal("calibration run %s failed: %s",
                       cells[i].label.c_str(), o.error.c_str());
        const double cap = static_cast<double>(o.requests) /
                           static_cast<double>(o.serve_span);
        const double nodes = cells[i].cfg.num_procs;
        std::printf("{\"%s\", %u, %.0f, %.0f},  // %.4f req/cycle\n",
                    cells[i].variant.c_str(), cells[i].read_pct,
                    nodes / (0.5 * cap), nodes / (0.8 * cap), cap);
    }
    return 0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    bool calibrate = false;
};

Args
parse(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--calibrate-serve") {
            a.calibrate = true;
            continue;
        }
        if (i + 1 >= argc)
            ncp2_fatal("%s expects a value", k.c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        const bool numeric = !v.empty() && end && *end == '\0';
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed" && numeric) {
            a.seed = n;
        } else if (k == "--seconds" && numeric && n >= 1 && n <= 3600) {
            a.seconds = static_cast<unsigned>(n);
        } else if (k == "--trace" && numeric && n <= 1) {
            a.trace = n == 1;
        } else {
            ncp2_fatal("bad argument %s %s", k.c_str(), v.c_str());
        }
    }
    if (!a.calibrate && !have_workload)
        ncp2_fatal("--workload is required (one of paper16, scale256, "
                   "serve16, fuzz_oracle)");
    return a;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
}

int
run(const Args &a)
{
    const WorkloadSpec w = buildWorkload(a.workload, a.seed);
    emitMeta(w, a.seed, a.seconds, a.trace);

    std::vector<const char *> modes = {"plain"};
    if (a.trace) {
        modes.push_back("traced");
        if (a.workload == "fuzz_oracle")
            modes.push_back("nocheck");
    }

    std::vector<std::size_t> trace_caps;
    std::vector<SimOutcome> first_traced;
    std::vector<double> round_s;
    const auto start = Clock::now();
    for (unsigned rep = 0;; ++rep) {
        const auto round_t0 = Clock::now();
        for (const char *mode : modes) {
            RunOptions opt;
            opt.trace = std::string(mode) == "traced";
            opt.oracle_off = std::string(mode) == "nocheck";
            std::vector<SimOutcome> out =
                runBatch(w.sims, opt, trace_caps, Clock::now());
            for (std::size_t i = 0; i < out.size(); ++i) {
                emitSim(mode, rep, i, out[i]);
                // Size the trace rings from the untraced run (about 1.5
                // records per event), so traced runs rarely need a retry.
                if (a.trace && !opt.trace && trace_caps.size() > i)
                    trace_caps[i] = std::max<std::size_t>(
                        trace_caps[i], 2 * out[i].events + 4096);
            }
            if (opt.trace && first_traced.empty()) {
                emitTraceQuantiles(out);
                first_traced = std::move(out);
            }
            std::cout.flush();
        }
        round_s.push_back(secondsBetween(round_t0, Clock::now()));
        // Start another round only if a typical one still fits.
        const double spent = secondsBetween(start, Clock::now());
        if (spent + median(round_s) > a.seconds)
            break;
    }
    if (a.trace) {
        emitSpans(first_traced);
        emitReplay(w, first_traced, a.seed);
    }
    Line("end").num("peak_rss_mb", peakRssMb())
        .num("elapsed_s", secondsBetween(start, Clock::now())).emit();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parse(argc, argv);
        return a.calibrate ? calibrateServe() : run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 2;
    }
}
