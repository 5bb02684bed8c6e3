#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "dsm/page.hh"
#include "net/mesh.hh"
#include "sim/rng.hh"
#include "sim/sched_group.hh"

namespace simbench
{

namespace
{

using Clock = std::chrono::steady_clock;

/// Replay results land here so the timed calls cannot be elided.
volatile std::uint64_t g_sink = 0;

/**
 * Median host ns per call of @p once(), which performs @p calls calls
 * and returns its own elapsed ns; repeated until ~0.2 s has been spent
 * (at least three times).
 */
template <typename F>
double
medianNsPerCall(std::uint64_t calls, F &&once)
{
    if (calls == 0)
        return 0;
    std::vector<double> per;
    double spent = 0;
    while (per.size() < 3 || (spent < 0.2e9 && per.size() < 51)) {
        const double ns = once();
        spent += ns;
        per.push_back(ns / static_cast<double>(calls));
    }
    std::nth_element(per.begin(), per.begin() + per.size() / 2, per.end());
    return per[per.size() / 2];
}

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

} // namespace

double
replaySchedNsPerEvent(unsigned nqueues, const std::vector<MsgRec> &msgs)
{
    // Per-queue tick lists: each message becomes an event on its
    // destination's queue; each event schedules its queue's next one.
    std::vector<std::vector<sim::Tick>> ticks(nqueues);
    for (const MsgRec &m : msgs)
        ticks[m.dst % nqueues].push_back(m.tick);
    for (auto &t : ticks)
        std::sort(t.begin(), t.end());

    struct Chain
    {
        sim::SchedulerGroup *group;
        const std::vector<std::vector<sim::Tick>> *ticks;
        std::vector<std::size_t> pos;

        void
        fire(unsigned q)
        {
            const auto &t = (*ticks)[q];
            if (++pos[q] >= t.size())
                return;
            sim::EventQueue &eq = group->queue(q);
            eq.schedule(std::max(t[pos[q]], eq.now()),
                        [this, q]() { fire(q); });
        }
    };

    return medianNsPerCall(msgs.size(), [&]() {
        sim::SchedulerGroup group(nqueues);
        Chain chain{&group, &ticks, std::vector<std::size_t>(nqueues, 0)};
        for (unsigned q = 0; q < nqueues; ++q) {
            if (!ticks[q].empty())
                group.queue(q).schedule(ticks[q][0],
                                        [&chain, q]() { chain.fire(q); });
        }
        const auto t0 = Clock::now();
        group.run();
        return nsSince(t0);
    });
}

double
replayMeshSendNs(const dsm::SysConfig &cfg, const std::vector<MsgRec> &msgs)
{
    std::uint64_t sink = 0;
    const double ns = medianNsPerCall(msgs.size(), [&]() {
        net::MeshNetwork mesh(cfg.num_procs, cfg.net, cfg.mesh_cluster,
                              cfg.inter_net);
        const auto t0 = Clock::now();
        for (const MsgRec &m : msgs)
            sink += mesh.send(m.tick, m.src, m.dst, m.bytes);
        return nsSince(t0);
    });
    g_sink = sink;
    return ns;
}

double
replayDiffNs(const std::vector<std::uint64_t> &diff_words, bool twin,
             std::uint64_t seed)
{
    const std::uint64_t total =
        std::accumulate(diff_words.begin(), diff_words.end(),
                        std::uint64_t{0});
    if (total == 0)
        return 0;
    const unsigned page_bytes = 4096;
    const unsigned words = page_bytes / 4;
    std::vector<unsigned> sizes;
    for (unsigned w = 0; w < diff_words.size() && w <= words; ++w)
        if (diff_words[w])
            sizes.push_back(w);

    // One page per distinct diff size, dirtied at random word offsets.
    dsm::PageStore store(page_bytes,
                         static_cast<std::uint64_t>(page_bytes) *
                             sizes.size(),
                         1);
    sim::Rng rng(seed);
    std::vector<unsigned> order(words);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        dsm::NodePage &pg = store.materialize(i);
        if (twin)
            store.makeTwin(pg);
        else
            store.armWriteBits(pg);
        std::iota(order.begin(), order.end(), 0u);
        for (unsigned k = 0; k + 1 < words; ++k)
            std::swap(order[k],
                      order[k + rng.below(words - k)]);
        auto *data = reinterpret_cast<std::uint32_t *>(pg.data.get());
        for (unsigned k = 0; k < sizes[i]; ++k) {
            data[order[k]] = 0x9e3779b9u + k;
            dsm::PageStore::snoopWrite(pg, order[k]);
        }
    }

    // Calls per size in proportion to the traced distribution.
    const double target = 20000;
    std::vector<std::uint64_t> calls(sizes.size());
    std::uint64_t all = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        calls[i] = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   target * static_cast<double>(diff_words[sizes[i]]) /
                   static_cast<double>(total)));
        all += calls[i];
    }
    dsm::Diff d;
    std::uint64_t sink = 0;
    const double ns = medianNsPerCall(all, [&]() {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const dsm::NodePage &pg = store.page(i);
            for (std::uint64_t c = 0; c < calls[i]; ++c) {
                if (twin)
                    store.diffFromTwin(i, pg, d);
                else
                    store.diffFromBits(i, pg, d);
                sink += d.words();
            }
        }
        return nsSince(t0);
    });
    g_sink = sink;
    return ns;
}

} // namespace simbench
