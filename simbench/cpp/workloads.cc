#include "workloads.hh"

#include "apps/barnes.hh"
#include "apps/em3d.hh"
#include "apps/gstl_torture.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "apps/serve/serve.hh"
#include "apps/torture.hh"
#include "apps/tsp.hh"
#include "apps/water.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace simbench
{

namespace
{

/** splitmix64: derives independent per-input seeds from one seed. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** The figure benches' protocol-label convention (fig::configFor). */
dsm::SysConfig
configFor(const std::string &variant, unsigned procs, std::uint64_t seed)
{
    dsm::SysConfig cfg;
    cfg.num_procs = procs;
    cfg.seed = seed;
    if (variant.rfind("AURC", 0) == 0) {
        cfg.protocol = dsm::ProtocolKind::aurc;
        cfg.mode.prefetch = variant == "AURC+P";
    } else {
        cfg.mode.offload = variant.find('I') != std::string::npos;
        cfg.mode.hw_diffs = variant.find('D') != std::string::npos;
        cfg.mode.prefetch = variant.find('P') != std::string::npos;
    }
    return cfg;
}

/**
 * The six paper applications at the "small" preset of apps::make (the
 * input sizes the paper-reference comparison is quoted at), or at the
 * "tiny" preset for the 256-node machine - with Radix at 16-bit keys
 * and Em3d at two iterations, so one 256-node batch takes seconds -
 * with the given input seed.
 */
std::unique_ptr<dsm::Workload>
makeApp(const std::string &app, bool tiny, std::uint64_t seed)
{
    if (app == "TSP") {
        apps::Tsp::Params p;
        p.cities = tiny ? 8 : 10;
        p.seed = seed;
        return std::make_unique<apps::Tsp>(p);
    }
    if (app == "Water") {
        apps::Water::Params p;
        p.molecules = tiny ? 24 : 64;
        p.steps = 2;
        p.seed = seed;
        return std::make_unique<apps::Water>(p);
    }
    if (app == "Radix") {
        apps::Radix::Params p;
        p.keys = tiny ? 4096 : 32768;
        if (tiny)
            p.key_bits = 16; // two passes: each is a 256-node exchange
        p.seed = seed;
        return std::make_unique<apps::Radix>(p);
    }
    if (app == "Barnes") {
        apps::Barnes::Params p;
        p.bodies = tiny ? 96 : 512;
        p.steps = tiny ? 1 : 2;
        p.seed = seed;
        return std::make_unique<apps::Barnes>(p);
    }
    if (app == "Em3d") {
        apps::Em3d::Params p;
        p.nodes_per_kind = tiny ? 512 : 2048;
        p.iters = tiny ? 2 : 4;
        p.seed = seed;
        return std::make_unique<apps::Em3d>(p);
    }
    if (app == "Ocean") {
        apps::Ocean::Params p;
        p.grid = tiny ? 34 : 130;
        p.sweeps = tiny ? 4 : 8;
        p.seed = seed;
        return std::make_unique<apps::Ocean>(p);
    }
    ncp2_fatal("unknown app '%s'", app.c_str());
}

const std::vector<std::string> kPaperApps = {"TSP",    "Water", "Radix",
                                             "Barnes", "Em3d",  "Ocean"};
const std::vector<std::string> kPaperVariants = {
    "Base", "I", "I+D", "P", "I+P", "I+P+D", "AURC", "AURC+P"};

WorkloadSpec
paper16(std::uint64_t seed)
{
    WorkloadSpec w;
    w.scale = "apps=small nodes=16 sims=48";
    for (std::size_t a = 0; a < kPaperApps.size(); ++a) {
        const std::string app = kPaperApps[a];
        const std::uint64_t app_seed = mix(seed, a);
        for (const auto &v : kPaperVariants) {
            SimSpec s;
            s.label = app + "/" + v;
            s.app = app;
            s.variant = v;
            s.group = "paper";
            s.cfg = configFor(v, 16, mix(seed, 100 + a));
            s.make = [app, app_seed]() {
                return makeApp(app, false, app_seed);
            };
            w.sims.push_back(std::move(s));
        }
    }
    return w;
}

WorkloadSpec
scale256(std::uint64_t seed)
{
    WorkloadSpec w;
    w.scale = "apps=tiny(radix 16-bit keys, em3d 2 iters) nodes=256 "
              "barrier_radix=8 mesh_cluster=16 sims=3";
    const std::vector<std::string> apps = {"Water", "Radix", "Em3d"};
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const std::string app = apps[a];
        const std::uint64_t app_seed = mix(seed, 200 + a);
        SimSpec s;
        s.label = app + "/Base/p256";
        s.app = app;
        s.variant = "Base";
        s.group = "scale";
        s.cfg = configFor("Base", 256, mix(seed, 300 + a));
        s.cfg.barrier_radix = 8;
        s.cfg.mesh_cluster = 16;
        s.make = [app, app_seed]() { return makeApp(app, true, app_seed); };
        w.sims.push_back(std::move(s));
    }
    return w;
}

/** The serve16 store/load shape shared by every cell. */
struct ServeShape
{
    unsigned nodes = 16;
    unsigned keys_log2 = 8;
    unsigned requests_per_node = 64;
    unsigned streams = 2;
    unsigned stripes = 8;
};

/**
 * Per (variant, mix) cell, the open-loop mean interarrival gap (cycles
 * per request per node) giving ~50% and ~80% of the cell's closed-loop
 * capacity. Calibrated once at seed 1 (simbench
 * --calibrate-serve: gap = nodes / (fraction x requests per cycle)) and
 * fixed here, so every run offers the same load.
 */
struct ServeGap
{
    const char *variant;
    unsigned read_pct;
    std::uint64_t gap50, gap80;
};

const ServeGap kServeGaps[] = {
    {"Base", 95, 55890, 34931},   {"Base", 50, 237839, 148649},
    {"I+P+D", 95, 25504, 15940},  {"I+P+D", 50, 66616, 41635},
    {"AURC", 95, 178447, 111530}, {"AURC", 50, 381506, 238441},
};

SimSpec
serveCell(std::uint64_t seed, const std::string &variant, unsigned read_pct,
          const std::string &group, std::uint64_t gap)
{
    const ServeShape shape;
    apps::ServeApp::Params p;
    p.load.seed = mix(seed, 400 + read_pct);
    p.load.keys_log2 = shape.keys_log2;
    p.load.requests_per_node = shape.requests_per_node;
    p.load.read_pct = read_pct;
    p.streams = shape.streams;
    p.stripes = shape.stripes;
    if (group == "closed") {
        // Issue-after-completion with no think time: every stream keeps
        // one request outstanding, so throughput is the cell's capacity.
        p.load.arrival = apps::serve::Arrival::closed;
        p.think_cycles = 0;
    } else {
        p.load.arrival = apps::serve::Arrival::poisson;
        p.load.mean_gap_cycles = gap;
    }
    SimSpec s;
    s.label = variant + "/r" + std::to_string(read_pct) + "/" + group;
    s.app = "Serve";
    s.variant = variant;
    s.group = group;
    s.read_pct = read_pct;
    s.expected_requests =
        std::uint64_t{shape.nodes} * shape.requests_per_node;
    s.cfg = configFor(variant, shape.nodes, mix(seed, 500 + read_pct));
    s.make = [p]() { return std::make_unique<apps::ServeApp>(p); };
    return s;
}

WorkloadSpec
serve16(std::uint64_t seed)
{
    WorkloadSpec w;
    const ServeShape shape;
    w.scale = "nodes=16 keys=2^" + std::to_string(shape.keys_log2) +
              " requests/node=" + std::to_string(shape.requests_per_node) +
              " streams=" + std::to_string(shape.streams) + " sims=18";
    for (const ServeGap &g : kServeGaps) {
        w.sims.push_back(serveCell(seed, g.variant, g.read_pct, "closed", 0));
        w.sims.push_back(
            serveCell(seed, g.variant, g.read_pct, "open50", g.gap50));
        w.sims.push_back(
            serveCell(seed, g.variant, g.read_pct, "open80", g.gap80));
    }
    return w;
}

/** Fuzz-varied shapes, in the manner of the fuzzing campaign; @p shape
 *  draws the shape, @p s seeds the program run within it. */
apps::Torture::Params
tortureParams(std::uint64_t shape, std::uint64_t s)
{
    sim::Rng g(mix(shape, 600));
    apps::Torture::Params p;
    p.seed = s;
    p.rounds = 6 + static_cast<unsigned>(g.below(8));
    p.data_pages = 2 + static_cast<unsigned>(g.below(5));
    p.counters = 4 + static_cast<unsigned>(g.below(12));
    p.pc_slots = 4 + static_cast<unsigned>(g.below(12));
    p.block_pct = static_cast<unsigned>(g.below(101));
    p.singles_per_chunk = 2 + static_cast<unsigned>(g.below(10));
    p.cadds_per_round = static_cast<unsigned>(g.below(4));
    p.racy_per_round = static_cast<unsigned>(g.below(6));
    p.max_compute = 50 + static_cast<unsigned>(g.below(400));
    return p;
}

apps::GstlTorture::Params
gstlParams(std::uint64_t shape, std::uint64_t s)
{
    sim::Rng g(mix(shape, 601));
    apps::GstlTorture::Params p;
    p.seed = s;
    p.rounds = 3 + static_cast<unsigned>(g.below(5));
    p.keys_per_round = 3 + static_cast<unsigned>(g.below(8));
    p.q_items = 3 + static_cast<unsigned>(g.below(8));
    p.counters = 2 + static_cast<unsigned>(g.below(8));
    p.adds_per_round = 1 + static_cast<unsigned>(g.below(5));
    p.stripes = 2 + static_cast<unsigned>(g.below(5));
    return p;
}

apps::ServeApp::Params
serveFuzzParams(std::uint64_t shape, std::uint64_t s)
{
    sim::Rng g(mix(shape, 602));
    apps::ServeApp::Params p;
    p.load.seed = s;
    // At least 32 keys: the store's directory plan (3 x keys slots over
    // the stripes) can overflow a stripe at 8-16 keys, which aborts the
    // run at plan time before any coherence is exercised.
    p.load.keys_log2 = 5 + static_cast<unsigned>(g.below(3));
    p.load.requests_per_node = 12 + static_cast<unsigned>(g.below(36));
    p.load.read_pct = static_cast<unsigned>(g.below(101));
    p.load.zipf_theta = 0.1 * static_cast<double>(g.below(10));
    p.load.arrival = static_cast<apps::serve::Arrival>(g.below(3));
    p.load.mean_gap_cycles = 200 + g.below(1200);
    p.load.burst_len = 2 + static_cast<unsigned>(g.below(8));
    p.shared = g.below(2) == 0;
    p.streams = 1 + static_cast<unsigned>(g.below(3));
    p.stripes = 2 + static_cast<unsigned>(g.below(6));
    p.doc_words = 2 + static_cast<unsigned>(g.below(7));
    p.service_cycles = 20 + static_cast<unsigned>(g.below(150));
    p.think_cycles = 100 + g.below(700);
    return p;
}

/**
 * Fuzz shapes: the fixed range of shape seeds 1..kFuzzShapes sets each
 * phase's size and op mix, so every benchmark seed measures the same
 * amount of work; the benchmark seed picks the op programs and the
 * simulated machine's seed within those shapes.
 */
constexpr unsigned kFuzzShapes = 2;

WorkloadSpec
fuzzOracle(std::uint64_t seed)
{
    WorkloadSpec w;
    w.scale = "fuzz_shapes=" + std::to_string(kFuzzShapes) +
              " phases=torture,gstl,serve variants=6 nodes=4,8,16 sims=" +
              std::to_string(kFuzzShapes * 3 * 6 * 3);
    const std::vector<std::string> variants = {"Base",  "I",    "I+D",
                                               "I+P+D", "AURC", "AURC+P"};
    for (std::uint64_t shape = 1; shape <= kFuzzShapes; ++shape) {
        const std::uint64_t fs = mix(seed, 700 + shape);
        for (const char *phase : {"torture", "gstl", "serve"}) {
            for (const auto &v : variants) {
                for (unsigned procs : {4u, 8u, 16u}) {
                    SimSpec s;
                    s.label = std::string(phase) + "/shape" +
                              std::to_string(shape) + "/" + v + "/p" +
                              std::to_string(procs);
                    s.variant = v;
                    s.group = phase;
                    s.cfg = configFor(v, procs, fs);
                    s.cfg.check = true;
                    const std::string ph = phase;
                    if (ph == "torture") {
                        s.app = "Torture";
                        const auto p = tortureParams(shape, fs);
                        s.make = [p]() {
                            return std::make_unique<apps::Torture>(p);
                        };
                    } else if (ph == "gstl") {
                        s.app = "GstlTorture";
                        const auto p = gstlParams(shape, fs);
                        s.make = [p]() {
                            return std::make_unique<apps::GstlTorture>(p);
                        };
                    } else {
                        s.app = "Serve";
                        const auto p = serveFuzzParams(shape, fs);
                        s.expected_requests =
                            std::uint64_t{procs} * p.load.requests_per_node;
                        s.make = [p]() {
                            return std::make_unique<apps::ServeApp>(p);
                        };
                    }
                    w.sims.push_back(std::move(s));
                }
            }
        }
    }
    return w;
}

} // namespace

std::vector<SimSpec>
serveClosedCells(std::uint64_t seed)
{
    std::vector<SimSpec> out;
    for (const ServeGap &g : kServeGaps)
        out.push_back(serveCell(seed, g.variant, g.read_pct, "closed", 0));
    return out;
}

WorkloadSpec
buildWorkload(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec w;
    if (name == "paper16")
        w = paper16(seed);
    else if (name == "scale256")
        w = scale256(seed);
    else if (name == "serve16")
        w = serve16(seed);
    else if (name == "fuzz_oracle")
        w = fuzzOracle(seed);
    else
        ncp2_fatal("unknown workload '%s'", name.c_str());
    w.name = name;
    return w;
}

} // namespace simbench
