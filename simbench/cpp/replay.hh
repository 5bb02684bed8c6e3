/**
 * @file
 * Layer replay kernels: re-drive single simulator layers from outside,
 * fed with what a traced run recorded, and time them per call.
 *
 *  - sim::SchedulerGroup: one chained event per traced message on the
 *    destination node's queue, so every node keeps an event pending
 *    and each dispatch pays the serial executor's arg-min scan;
 *  - net::MeshNetwork::send: the traced msg_send stream re-injected
 *    into a fresh mesh of the same geometry;
 *  - dsm::PageStore::diffFromTwin / diffFromBits: pages dirtied to the
 *    traced diff-size distribution.
 */

#ifndef SIMBENCH_REPLAY_HH
#define SIMBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "dsm/config.hh"
#include "trace_stats.hh"

namespace simbench
{

/** Host ns per event of a @p nqueues-node scheduler fed @p msgs. */
double replaySchedNsPerEvent(unsigned nqueues,
                             const std::vector<MsgRec> &msgs);

/** Host ns per MeshNetwork::send over @p msgs on @p cfg's fabric. */
double replayMeshSendNs(const dsm::SysConfig &cfg,
                        const std::vector<MsgRec> &msgs);

/**
 * Host ns per diff over pages dirtied to the word-count distribution
 * @p diff_words (index = words); software twin diffs if @p twin, else
 * hardware bit-vector gathers. 0 when the distribution is empty.
 */
double replayDiffNs(const std::vector<std::uint64_t> &diff_words, bool twin,
                    std::uint64_t seed);

} // namespace simbench

#endif // SIMBENCH_REPLAY_HH
