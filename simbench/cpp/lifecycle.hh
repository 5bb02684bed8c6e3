/**
 * @file
 * One simulation's lifecycle, timed from outside the simulator: the
 * benchmark makes each call into the public API itself
 * (harness::makeProtocol, dsm::System construction, System::run,
 * destruction) and wraps the workload in a forwarding decorator that
 * times Workload::plan and Workload::validate. Nothing inside src/ is
 * instrumented.
 */

#ifndef SIMBENCH_LIFECYCLE_HH
#define SIMBENCH_LIFECYCLE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dsm/system.hh"
#include "dsm/workload.hh"
#include "trace_stats.hh"
#include "workloads.hh"

namespace simbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two instants. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * A benchmark span: one layer boundary crossed by one simulation
 * (job > protocol, ctor, run > {plan, validate}, collect, teardown;
 * collect is the benchmark's own result and trace analysis). Every
 * span of a simulation shares its id; times are host seconds since the
 * batch started.
 */
struct Span
{
    const char *name;
    const char *parent; ///< nullptr for the job span
    double start, end;
};

/** What one simulation produced, host timings and simulated outputs. */
struct SimOutcome
{
    std::string error; ///< empty on success

    // Host seconds per lifecycle call.
    double job_s = 0, protocol_s = 0, ctor_s = 0, plan_s = 0, run_s = 0,
           validate_s = 0, teardown_s = 0;
    double rss_after_ctor_mb = 0; ///< process RSS right after construction
    /// Reference-kernel seconds around this simulation: the mean of the
    /// readings taken just before and just after it (host speed).
    double ref_s = 0;
    std::vector<Span> spans;

    // Simulated outputs.
    std::uint64_t exec_ticks = 0;
    std::uint64_t digest = 0; ///< hash of every simulated output
    std::uint64_t events = 0; ///< events executed over all node queues
    std::uint64_t yields = 0; ///< CPU fiber yields over all nodes
    std::uint64_t bd[8] = {}; ///< busy,data,synch,ipc,others,idle,diff,total
    net::NetStats net;
    std::map<std::string, double> counters; ///< flattened protocol stats

    // Serving cells (apps::ServeApp) only.
    std::uint64_t requests = 0, req_p50 = 0, req_p99 = 0, queue_p99 = 0,
                  service_p99 = 0;
    std::uint64_t serve_span = 0;   ///< first arrival to last completion
    std::uint64_t arrival_span = 0; ///< first arrival to last arrival

    // Traced runs only.
    bool traced = false;
    std::uint64_t trace_dropped = 0;
    TraceStats trace;
};

/** How to run a batch. */
struct RunOptions
{
    bool trace = false;         ///< size a trace ring and analyze it
    bool oracle_off = false;    ///< force SysConfig::check off
};

/**
 * Run @p sims one after another on the calling thread (results in
 * submission order), timing the reference kernel before the first, after
 * the last, and between two simulations once 0.2 s have passed since the
 * previous reading.
 * A simulation that throws is recorded in SimOutcome::error and the
 * rest keep running. @p trace_capacity holds, per simulation, the ring
 * size to try first; traced runs grow it until nothing is dropped.
 */
std::vector<SimOutcome> runBatch(const std::vector<SimSpec> &sims,
                                 const RunOptions &opt,
                                 std::vector<std::size_t> &trace_capacity,
                                 Clock::time_point epoch);

/** Current resident set of this process in MiB. */
double currentRssMb();

/** Peak resident set of this process in MiB. */
double peakRssMb();

} // namespace simbench

#endif // SIMBENCH_LIFECYCLE_HH
