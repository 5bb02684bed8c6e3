/**
 * @file
 * The benchmark's workloads: each is a fixed batch of independent
 * simulations built from the benchmark seed. The simulator receives
 * only the generated inputs (app Params seeds, serve::LoadSpec::seed,
 * torture seeds and SysConfig::seed all derive from it).
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsm/config.hh"
#include "dsm/workload.hh"

namespace simbench
{

/** One simulation of a batch. */
struct SimSpec
{
    std::string label;   ///< "Water/I+D", "Base/r95/open50", ...
    std::string app;     ///< "Water", "Serve", "Torture", ...
    std::string variant; ///< protocol label: Base, I, ..., AURC+P
    /// Role in the workload's metrics: "paper", "scale", "closed",
    /// "open50", "open80", "torture", "gstl", "serve".
    std::string group;
    unsigned read_pct = 0; ///< serve cells only
    /// Requests a serving run must complete (nodes x per-node schedule);
    /// 0 for the other apps.
    std::uint64_t expected_requests = 0;
    dsm::SysConfig cfg;
    std::function<std::unique_ptr<dsm::Workload>()> make;
};

struct WorkloadSpec
{
    std::string name;
    std::string scale; ///< recorded input size, e.g. "apps=small"
    std::vector<SimSpec> sims;
};

/** Build workload @p name's batch from @p seed; fatal on unknown names. */
WorkloadSpec buildWorkload(const std::string &name, std::uint64_t seed);

/**
 * The serve16 closed-loop cells alone, one per (variant, mix): the
 * runs the committed open-loop gaps were calibrated from.
 */
std::vector<SimSpec> serveClosedCells(std::uint64_t seed);

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
