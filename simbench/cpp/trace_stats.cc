#include "trace_stats.hh"

#include <unordered_map>

namespace simbench
{

TraceStats
analyzeTrace(const std::vector<sim::TraceRecord> &records,
             unsigned page_words)
{
    TraceStats ts;
    ts.records = records.size();
    ts.diff_words.assign(page_words + 1, 0);
    std::unordered_map<std::uint64_t, sim::Tick> fault_open, lock_open;
    const auto key = [](const sim::TraceRecord &r) {
        return (static_cast<std::uint64_t>(r.node) << 40) ^ r.arg;
    };
    const auto close = [](std::unordered_map<std::uint64_t, sim::Tick> &open,
                          std::uint64_t k, sim::Tick end,
                          sim::QuantileSketch &out) {
        const auto it = open.find(k);
        if (it == open.end())
            return;
        out.sample(end >= it->second ? end - it->second : 0);
        open.erase(it);
    };
    for (const sim::TraceRecord &r : records) {
        switch (r.kind) {
          case sim::TraceKind::page_fault:
            fault_open[key(r)] = r.tick;
            break;
          case sim::TraceKind::fault_done:
            close(fault_open, key(r), r.tick, ts.fault_cycles);
            break;
          case sim::TraceKind::lock_acquire:
            lock_open[key(r)] = r.tick;
            break;
          case sim::TraceKind::lock_grant:
            close(lock_open, key(r), r.tick, ts.lock_wait_cycles);
            break;
          case sim::TraceKind::ctrl_queue:
            ts.ctrl_depth_sum += static_cast<double>(r.arg);
            ++ts.ctrl_depth_samples;
            if (r.arg > ts.ctrl_depth_max)
                ts.ctrl_depth_max = r.arg;
            break;
          case sim::TraceKind::diff_create:
            ++ts.diff_words[r.aux < page_words ? r.aux : page_words];
            break;
          case sim::TraceKind::msg_send:
            ts.msgs.push_back({r.tick, static_cast<std::uint32_t>(r.arg),
                               static_cast<std::uint16_t>(r.node), r.aux});
            break;
          default:
            break;
        }
    }
    return ts;
}

} // namespace simbench
