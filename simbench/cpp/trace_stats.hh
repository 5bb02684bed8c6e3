/**
 * @file
 * Simulated spans and counts derived from one run's sim::Trace records:
 * page-fault service time (page_fault -> fault_done), lock wait
 * (lock_acquire -> lock_grant), controller queue depth, the diff-size
 * distribution and the message stream the replay kernels re-drive.
 */

#ifndef SIMBENCH_TRACE_STATS_HH
#define SIMBENCH_TRACE_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/quantile.hh"
#include "sim/trace.hh"

namespace simbench
{

/** One msg_send record, compacted for replay. */
struct MsgRec
{
    sim::Tick tick;
    std::uint32_t bytes;
    std::uint16_t src, dst;
};

struct TraceStats
{
    std::uint64_t records = 0;
    sim::QuantileSketch fault_cycles;
    sim::QuantileSketch lock_wait_cycles;
    double ctrl_depth_sum = 0;
    std::uint64_t ctrl_depth_samples = 0;
    std::uint64_t ctrl_depth_max = 0;
    /// diff_create count by words in the diff (index = words).
    std::vector<std::uint64_t> diff_words;
    std::vector<MsgRec> msgs; ///< msg_send stream in emission order
};

/** Derive the stats above from @p records (emission order). */
TraceStats analyzeTrace(const std::vector<sim::TraceRecord> &records,
                        unsigned page_words);

} // namespace simbench

#endif // SIMBENCH_TRACE_STATS_HH
