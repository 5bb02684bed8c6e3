#include "lifecycle.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>

#include "apps/serve/serve.hh"
#include "harness/runner.hh"
#include "refkernel.hh"
#include "sim/context.hh"

namespace simbench
{

namespace
{

/// Host speed can change within a second; a reading this often costs
/// about 5% of a batch's time.
constexpr double kRefEverySeconds = 0.2;

/** Close the span @p name that began at @p t0; returns its seconds. */
double
closeSpan(SimOutcome &out, const char *name, const char *parent,
          Clock::time_point epoch, Clock::time_point t0)
{
    const auto t1 = Clock::now();
    out.spans.push_back({name, parent, secondsBetween(epoch, t0),
                         secondsBetween(epoch, t1)});
    return secondsBetween(t0, t1);
}

/**
 * Forwards every dsm::Workload call to the wrapped workload, timing
 * plan() and validate() as spans of the enclosing simulation.
 */
class TimedWorkload final : public dsm::Workload
{
  public:
    TimedWorkload(dsm::Workload &inner, Clock::time_point epoch,
                  SimOutcome &out)
        : inner_(inner), epoch_(epoch), out_(out)
    {
    }

    std::string name() const override { return inner_.name(); }

    void
    plan(dsm::GlobalHeap &heap, const dsm::SysConfig &cfg) override
    {
        const auto t0 = Clock::now();
        inner_.plan(heap, cfg);
        out_.plan_s = closeSpan(out_, "plan", "run", epoch_, t0);
    }

    void run(dsm::Proc &p) override { inner_.run(p); }

    void
    validate(dsm::System &sys) override
    {
        const auto t0 = Clock::now();
        inner_.validate(sys);
        out_.validate_s = closeSpan(out_, "validate", "run", epoch_, t0);
    }

    const sim::StatGroup *
    statGroup() const override
    {
        return inner_.statGroup();
    }

    bool pdesSafe() const override { return inner_.pdesSafe(); }

  private:
    dsm::Workload &inner_;
    Clock::time_point epoch_;
    SimOutcome &out_;
};

/** FNV-1a over the simulated outputs; host time never enters. */
class Digest
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    f64(double v)
    {
        std::uint64_t b;
        std::memcpy(&b, &v, sizeof b);
        u64(b);
    }

    void
    str(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        u64(s.size());
    }

    void
    snapshot(const sim::StatSnapshot &s)
    {
        str(s.name);
        for (const auto &c : s.counters) {
            str(c.name);
            f64(c.value);
        }
        for (const auto &a : s.accums) {
            str(a.name);
            f64(a.sum);
            u64(a.samples);
        }
        for (const auto &h : s.hists) {
            str(h.name);
            u64(h.total);
            f64(h.max);
            for (double b : h.bounds)
                f64(b);
            for (std::uint64_t c : h.counts)
                u64(c);
        }
        for (const auto &q : s.sketches) {
            str(q.name);
            for (std::uint64_t v : {q.count, q.sum, q.max, q.p50, q.p99, q.p999})
                u64(v);
        }
        u64(s.children.size());
        for (const auto &c : s.children)
            snapshot(c);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
digestOf(const dsm::RunResult &r)
{
    Digest d;
    d.u64(r.exec_ticks);
    for (const dsm::Breakdown &b : r.bd) {
        for (std::uint64_t c : b.cycles)
            d.u64(c);
        d.u64(b.diff_op_cycles);
        d.u64(b.diff_op_ctrl_cycles);
    }
    d.u64(r.net.messages);
    d.u64(r.net.bytes);
    d.u64(r.net.latency_cycles);
    d.u64(r.net.contention_cycles);
    d.snapshot(r.stats);
    d.snapshot(r.app_stats);
    return d.value();
}

const sim::StatSnapshot::SketchVal *
sketch(const sim::StatSnapshot &s, const char *name)
{
    for (const auto &q : s.sketches)
        if (q.name == name)
            return &q;
    return nullptr;
}

/** Fill the outcome's simulated outputs from a finished run. */
void
collect(const dsm::RunResult &r, SimOutcome &out)
{
    out.exec_ticks = r.exec_ticks;
    out.digest = digestOf(r);
    const dsm::Breakdown t = r.total();
    out.bd[0] = t.get(dsm::Cat::busy);
    out.bd[1] = t.get(dsm::Cat::data);
    out.bd[2] = t.get(dsm::Cat::synch);
    out.bd[3] = t.get(dsm::Cat::ipc);
    out.bd[4] = t.others();
    out.bd[5] = t.get(dsm::Cat::idle);
    out.bd[6] = t.diff_op_cycles;
    out.bd[7] = out.bd[0] + out.bd[1] + out.bd[2] + out.bd[3] + out.bd[4];
    out.net = r.net;
    out.counters = r.stats.flat();
    if (const auto *l = sketch(r.app_stats, "latency")) {
        out.requests = l->count;
        out.req_p50 = l->p50;
        out.req_p99 = l->p99;
    }
    if (const auto *q = sketch(r.app_stats, "queue_delay"))
        out.queue_p99 = q->p99;
    if (const auto *v = sketch(r.app_stats, "service"))
        out.service_p99 = v->p99;
}

/** Serving spans of a ServeApp run, from its first arrival. */
void
collectServe(const dsm::Workload &w, unsigned nodes, SimOutcome &out)
{
    const auto *s = dynamic_cast<const apps::ServeApp *>(&w);
    if (!s)
        return;
    std::uint64_t first = ~0ull, last_arrival = 0, last = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        for (const auto &rq : s->log(n)) {
            first = std::min(first, rq.arrival);
            last_arrival = std::max(last_arrival, rq.arrival);
            last = std::max(last, rq.done);
        }
    }
    out.serve_span = last > first ? last - first : 0;
    out.arrival_span = last_arrival > first ? last_arrival - first : 0;
}

/** One attempt at a simulation; throws what the simulator throws. */
void
runOnce(const SimSpec &spec, const RunOptions &opt, std::size_t capacity,
        Clock::time_point epoch, SimOutcome &out)
{
    sim::Context ctx;
    ctx.quiet = true;
    ctx.label = spec.label;
    sim::Context::Scope scope(ctx);

    dsm::SysConfig cfg = spec.cfg;
    cfg.trace_capacity = opt.trace ? capacity : 0;
    if (opt.oracle_off)
        cfg.check = false;

    const auto t_job = Clock::now();
    std::unique_ptr<dsm::Workload> inner = spec.make();
    TimedWorkload timed(*inner, epoch, out);

    auto span = [&](const char *name, const char *parent,
                    Clock::time_point t0) {
        return closeSpan(out, name, parent, epoch, t0);
    };

    auto t0 = Clock::now();
    std::unique_ptr<dsm::Protocol> proto = harness::makeProtocol(cfg);
    out.protocol_s = span("protocol", "job", t0);

    t0 = Clock::now();
    auto sys = std::make_unique<dsm::System>(cfg, std::move(proto));
    out.ctor_s = span("ctor", "job", t0);
    out.rss_after_ctor_mb = currentRssMb();

    t0 = Clock::now();
    dsm::RunResult r = sys->run(timed);
    out.run_s = span("run", "job", t0);

    t0 = Clock::now();
    for (unsigned i = 0; i < cfg.num_procs; ++i) {
        out.events += sys->sched().queue(i).executed();
        out.yields += sys->node(i).cpu.yields();
    }
    collect(r, out);
    collectServe(*inner, cfg.num_procs, out);
    if (opt.trace) {
        out.traced = true;
        out.trace_dropped = r.trace_dropped;
        out.trace = analyzeTrace(r.trace, cfg.pageWords());
        out.trace.records += r.trace_dropped;
    }
    r = dsm::RunResult(); // the trace is analyzed; free it before teardown
    span("collect", "job", t0);

    t0 = Clock::now();
    sys.reset();
    out.teardown_s = span("teardown", "job", t0);
    inner.reset();
    out.job_s = span("job", nullptr, t_job);
}

SimOutcome
runSim(const SimSpec &spec, const RunOptions &opt, std::size_t &capacity,
       Clock::time_point epoch)
{
    // A traced run whose ring overflowed is re-run with a ring sized to
    // everything it emitted, so the reported trace is complete.
    for (int attempt = 0;; ++attempt) {
        SimOutcome out;
        try {
            runOnce(spec, opt, capacity, epoch, out);
        } catch (const std::exception &e) {
            out = SimOutcome();
            out.error = e.what();
            if (out.error.empty())
                out.error = "(empty exception message)";
            return out;
        }
        if (!opt.trace || out.trace_dropped == 0 || attempt == 2)
            return out;
        capacity = out.trace.records + out.trace.records / 8 + 1024;
    }
}

} // namespace

std::vector<SimOutcome>
runBatch(const std::vector<SimSpec> &sims, const RunOptions &opt,
         std::vector<std::size_t> &trace_capacity, Clock::time_point epoch)
{
    std::vector<SimOutcome> out(sims.size());
    trace_capacity.resize(sims.size(), std::size_t{1} << 18);
    // readings[before[i]] is the last reference reading taken before
    // simulation i, readings[before[i] + 1] the first one after it.
    std::vector<double> readings = {refKernelSeconds()};
    std::vector<std::size_t> before(sims.size());
    auto last_reading = Clock::now();
    for (std::size_t i = 0; i < sims.size(); ++i) {
        if (i > 0 &&
            secondsBetween(last_reading, Clock::now()) >= kRefEverySeconds) {
            readings.push_back(refKernelSeconds());
            last_reading = Clock::now();
        }
        before[i] = readings.size() - 1;
        out[i] = runSim(sims[i], opt, trace_capacity[i], epoch);
    }
    readings.push_back(refKernelSeconds());
    for (std::size_t i = 0; i < sims.size(); ++i)
        out[i].ref_s = 0.5 * (readings[before[i]] + readings[before[i] + 1]);
    return out;
}

double
currentRssMb()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long size = 0, resident = 0;
    const int n = std::fscanf(f, "%lu %lu", &size, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace simbench
