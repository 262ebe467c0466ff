/**
 * @file
 * Differential fuzzing of the devirtualized simulation kernel against
 * a test-side oracle.
 *
 * The oracle pipeline is the simulation without any of the kernel's
 * shortcuts: a CollectingListener behind a recording virtual
 * cpu::AccessListener, driven by ReferenceCore
 * (tests/reference_core.hpp), which pulls one µop at a time through
 * Workload::next() and rebuilds every fetch group by peeking, with
 * every recorded cache access replayed through ReferenceCache
 * (tests/reference_cache.hpp), whose replacement decisions come from
 * the virtual ReplacementPolicy objects.  One comparison covers all
 * three kernelizations at once: run-granular fetch, the packed
 * replacement kernel, and the devirtualized listener chain.
 *
 * Two layers of differential:
 *
 *  - Experiment level: 1000 seeded random programs (RNG-fed patterns
 *    included, unlike the analytic fuzzer — the kernel has no
 *    eligibility gate) across random geometries and all three
 *    ReplacementKinds, including the 16-way shapes that fill a whole
 *    nibble-packed rank word.  Most are LoopPrograms; every fourth is
 *    a CallGraphProgram and every eighth (offset by one) a
 *    CompositeWorkload that alternates a LoopProgram and a
 *    CallGraphProgram on short quanta.  run_experiment must serialize
 *    exactly like the oracle pipeline, and the replay must reproduce
 *    every recorded AccessResult.  On a mismatch the failing seed is
 *    printed with a greedily minimized program.
 *
 *  - Bare cache level: identical address streams driven through a
 *    sim::Cache and a ReferenceCache, asserting every AccessResult
 *    field per access — the eviction stream and, for Random
 *    replacement, the RNG draw stream must stay in lockstep, not just
 *    the end-of-run aggregates.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/collecting_listener.hpp"
#include "core/experiment.hpp"
#include "interval/collector.hpp"
#include "prefetch/stride.hpp"
#include "reference_cache.hpp"
#include "reference_core.hpp"
#include "sim/cache.hpp"
#include "util/random.hpp"
#include "workload/callgraph.hpp"
#include "workload/data_pattern.hpp"
#include "workload/loop_program.hpp"

using namespace leakbound;
using namespace leakbound::core;
using oracle::ReferenceCache;
using workload::BlockSpec;
using workload::NodeSpec;

namespace {

constexpr Addr kCodeBase = 0x0040'0000;
constexpr Addr kHeapBase = 0x1000'0000;

/** One pattern-pool entry, regenerable (the minimizer rebuilds). */
struct PatternSpec
{
    enum class Kind { Sequential, Strided, Random, Chase, Stack } kind;
    std::uint64_t a = 0; ///< region bytes / elements / nodes / depth
    std::uint64_t b = 0; ///< step / stride / align / node bytes
    std::uint64_t seed = 0;
};

/** A regenerable fuzz program: spec tree + pattern pool + geometry. */
struct ProgramSpec
{
    enum class Kind { Loop, CallGraph, Composite };

    std::uint64_t seed = 0;
    Kind kind = Kind::Loop;
    std::vector<NodeSpec> nodes;       ///< Loop and Composite
    workload::CallGraphSpec graph;     ///< CallGraph and Composite
    std::uint64_t loop_quantum = 0;    ///< Composite
    std::uint64_t graph_quantum = 0;   ///< Composite
    std::vector<PatternSpec> patterns;
    sim::HierarchyConfig hierarchy;
    std::uint64_t instructions = 0;
};

workload::DataPatternPtr
build_pattern(const PatternSpec &spec, std::size_t index)
{
    const Addr base = kHeapBase + static_cast<Addr>(index) * (1 << 22);
    switch (spec.kind) {
      case PatternSpec::Kind::Sequential:
        return workload::make_sequential(
            base, spec.a, static_cast<std::uint32_t>(spec.b));
      case PatternSpec::Kind::Strided:
        return workload::make_strided(base, spec.a, 8, spec.b);
      case PatternSpec::Kind::Random:
        return workload::make_random(
            base, spec.a, static_cast<std::uint32_t>(spec.b), spec.seed);
      case PatternSpec::Kind::Chase:
        return workload::make_pointer_chase(
            base, spec.a, static_cast<std::uint32_t>(spec.b), spec.seed);
      case PatternSpec::Kind::Stack:
        return workload::make_stack(base + spec.a, spec.a, spec.seed);
    }
    return nullptr;
}

std::vector<workload::DataPatternPtr>
build_pool(const ProgramSpec &spec)
{
    std::vector<workload::DataPatternPtr> pool;
    for (std::size_t i = 0; i < spec.patterns.size(); ++i)
        pool.push_back(build_pattern(spec.patterns[i], i));
    return pool;
}

workload::WorkloadPtr
build_program(const ProgramSpec &spec)
{
    auto loop = [&spec] {
        std::vector<NodeSpec> nodes = spec.nodes; // LoopProgram takes it
        return std::make_unique<workload::LoopProgram>(
            "fuzz", kCodeBase, std::move(nodes), build_pool(spec),
            spec.seed);
    };
    // The graph's code sits past the loop program's, so a composite's
    // phases never share an I-line by accident of layout.
    auto graph = [&spec](Addr base) {
        return std::make_unique<workload::CallGraphProgram>(
            "fuzz", base, spec.graph, build_pool(spec), spec.seed);
    };
    switch (spec.kind) {
      case ProgramSpec::Kind::Loop:
        return loop();
      case ProgramSpec::Kind::CallGraph:
        return graph(kCodeBase);
      case ProgramSpec::Kind::Composite: {
        std::vector<workload::CompositeWorkload::Phase> phases;
        phases.push_back({loop(), spec.loop_quantum});
        phases.push_back({graph(kCodeBase + 0x10'0000), spec.graph_quantum});
        return std::make_unique<workload::CompositeWorkload>(
            "fuzz", std::move(phases));
      }
    }
    return nullptr;
}

sim::ReplacementKind
random_replacement(util::Rng &rng)
{
    switch (rng.next_below(3)) {
      case 0: return sim::ReplacementKind::Lru;
      case 1: return sim::ReplacementKind::Fifo;
      default: return sim::ReplacementKind::Random;
    }
}

/**
 * Small geometries keep 2000 simulations fast while covering
 * direct-mapped through 8-way L1s and up to 16-way L2s, the widest
 * geometry the cache model accepts.
 */
sim::HierarchyConfig
random_hierarchy(util::Rng &rng)
{
    sim::HierarchyConfig h;
    const std::uint32_t line = 32u << rng.next_below(2); // 32 or 64

    h.l1i.name = "kz-l1i";
    h.l1i.line_bytes = line;
    h.l1i.associativity = 1u << rng.next_below(4); // 1, 2, 4, 8
    h.l1i.size_bytes =
        (1024u << rng.next_below(3)) * h.l1i.associativity;
    h.l1i.hit_latency = 1;
    h.l1i.replacement = random_replacement(rng);

    h.l1d.name = "kz-l1d";
    h.l1d.line_bytes = line;
    h.l1d.associativity = 1u << rng.next_below(4);
    h.l1d.size_bytes =
        (1024u << rng.next_below(3)) * h.l1d.associativity;
    h.l1d.hit_latency = 1 + rng.next_below(3);
    h.l1d.replacement = random_replacement(rng);

    h.l2.name = "kz-l2";
    h.l2.line_bytes = line;
    // 1..16 ways: the 16-way draw fills every nibble of the rank
    // word, so the widest packable geometry is part of the fuzzed
    // surface.
    h.l2.associativity = 1u << rng.next_below(5);
    h.l2.size_bytes =
        (8192u << rng.next_below(3)) * h.l2.associativity;
    h.l2.hit_latency = 5 + rng.next_below(5);
    h.l2.replacement = random_replacement(rng);

    h.memory_latency = 20 + rng.next_below(80);
    return h;
}

PatternSpec
random_pattern(util::Rng &rng)
{
    PatternSpec p{};
    switch (rng.next_below(5)) {
      case 0:
        p.kind = PatternSpec::Kind::Sequential;
        p.a = 512u << rng.next_below(5); // 512B..8KB region
        p.b = 4u << rng.next_below(2);   // 4 or 8 byte step
        break;
      case 1:
        p.kind = PatternSpec::Kind::Strided;
        p.a = 256u << rng.next_below(4); // 256..2048 elements
        p.b = 1u << rng.next_below(10);  // 1..512 element stride
        break;
      case 2:
        p.kind = PatternSpec::Kind::Random;
        p.a = 1024u << rng.next_below(6); // 1KB..32KB working set
        p.b = 8;
        p.seed = rng.next_u64();
        break;
      case 3:
        p.kind = PatternSpec::Kind::Chase;
        p.a = 16u << rng.next_below(5); // 16..256 nodes
        p.b = 32u << rng.next_below(3); // 32..128 byte nodes
        p.seed = rng.next_u64();
        break;
      default:
        p.kind = PatternSpec::Kind::Stack;
        p.a = 512u << rng.next_below(3); // 512B..2KB stack depth
        p.seed = rng.next_u64();
        break;
    }
    return p;
}

/** A node tree of depth <= 3; trip counts may be random (min < max). */
NodeSpec
random_node(util::Rng &rng, int depth, std::size_t num_patterns)
{
    const bool leaf = depth >= 3 || rng.next_bool(0.45);
    if (leaf) {
        BlockSpec block;
        block.instrs = static_cast<std::uint32_t>(rng.next_in(4, 48));
        block.store_fraction = rng.next_double();
        if (rng.next_bool(0.8)) {
            block.pattern =
                static_cast<int>(rng.next_below(num_patterns));
            block.mem_fraction = 0.1 + 0.5 * rng.next_double();
        } else {
            block.pattern = -1; // pure compute block
            block.mem_fraction = 0.0;
        }
        return NodeSpec::make_block(block);
    }
    std::uint64_t min_trips;
    std::uint64_t max_trips;
    const std::uint64_t shape = rng.next_below(8);
    if (shape == 0) {
        min_trips = max_trips = 0; // still draws its trip count
    } else if (shape == 1) {
        min_trips = max_trips = 1;
    } else {
        min_trips = rng.next_in(1, 6);
        max_trips = min_trips + rng.next_below(8);
    }
    const std::size_t children = rng.next_in(1, 3);
    std::vector<NodeSpec> body;
    for (std::size_t i = 0; i < children; ++i)
        body.push_back(random_node(rng, depth + 1, num_patterns));
    return NodeSpec::make_loop(min_trips, max_trips, std::move(body));
}

ProgramSpec
random_program(std::uint64_t seed)
{
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    ProgramSpec spec;
    spec.seed = seed;
    const std::size_t npatterns = rng.next_in(1, 4);
    for (std::size_t i = 0; i < npatterns; ++i)
        spec.patterns.push_back(random_pattern(rng));
    const std::size_t nnodes = rng.next_in(1, 4);
    for (std::size_t i = 0; i < nnodes; ++i)
        spec.nodes.push_back(random_node(rng, 0, npatterns));
    spec.hierarchy = random_hierarchy(rng);
    // Budgets cross many run-buffer refills and both partial-group and
    // workload-truncated endings.
    spec.instructions = 4'000 + rng.next_below(16'000);

    // The call-graph and composite arms draw from their own stream, so
    // the loop programs of the other seeds stay what they always were.
    if (seed % 4 == 0)
        spec.kind = ProgramSpec::Kind::CallGraph;
    else if (seed % 8 == 1)
        spec.kind = ProgramSpec::Kind::Composite;
    if (spec.kind != ProgramSpec::Kind::Loop) {
        util::Rng g(seed * 0xd1342543de82ef95ULL + 3);
        workload::CallGraphSpec &cg = spec.graph;
        cg.num_functions = static_cast<std::uint32_t>(g.next_in(1, 48));
        cg.min_instrs = static_cast<std::uint32_t>(g.next_in(1, 40));
        cg.max_instrs =
            cg.min_instrs + static_cast<std::uint32_t>(g.next_below(200));
        cg.fanout = static_cast<std::uint32_t>(g.next_below(4));
        cg.locality = g.next_double();
        cg.neighbourhood = static_cast<std::uint32_t>(g.next_in(1, 8));
        cg.repeat_min = static_cast<std::uint32_t>(g.next_in(1, 3));
        cg.repeat_max =
            cg.repeat_min + static_cast<std::uint32_t>(g.next_below(4));
        cg.mem_fraction = g.next_bool(0.2) ? 0.0 : 0.6 * g.next_double();
        cg.store_fraction = g.next_double();
        spec.loop_quantum = g.next_in(1, 600);
        spec.graph_quantum = g.next_in(1, 600);
    }
    return spec;
}

ExperimentConfig
config_for(const ProgramSpec &spec)
{
    ExperimentConfig config;
    config.instructions = spec.instructions;
    config.hierarchy = spec.hierarchy;
    config.engine = Engine::Sim;
    return config;
}

/** One hierarchy access as the core's listener saw it. */
struct RecordedAccess
{
    bool instr = false; ///< L1I (fetch group) rather than L1D
    Addr addr = 0;
    sim::HierarchyResult result;
};

/** Records every access, then hands it on to @p inner. */
class RecordingListener final : public cpu::AccessListener
{
  public:
    explicit RecordingListener(cpu::AccessListener *inner) : inner_(inner)
    {
    }

    void
    on_instr_access(Cycle cycle, Pc pc,
                    const sim::HierarchyResult &result) override
    {
        accesses.push_back({true, pc, result});
        inner_->on_instr_access(cycle, pc, result);
    }

    void
    on_data_access(Cycle cycle, Pc pc, Addr addr, bool is_store,
                   const sim::HierarchyResult &result) override
    {
        accesses.push_back({false, addr, result});
        inner_->on_data_access(cycle, pc, addr, is_store, result);
    }

    std::vector<RecordedAccess> accesses;

  private:
    cpu::AccessListener *inner_;
};

/** What the oracle pipeline produced for one spec. */
struct OracleRun
{
    std::string bytes; ///< serialize_result of the run
    std::vector<RecordedAccess> accesses;
};

/**
 * The oracle pipeline: run_experiment's plain-simulation body over
 * the virtual listener interface and the one-µop ReferenceCore.
 */
OracleRun
oracle_run(const ProgramSpec &spec)
{
    const ExperimentConfig config = config_for(spec);
    auto workload = build_program(spec);
    const auto edges =
        interval::IntervalHistogramSet::default_edges(config.extra_edges);

    sim::Hierarchy hierarchy(config.hierarchy);
    ExperimentResult result{
        CacheObservation(interval::IntervalHistogramSet(edges)),
        CacheObservation(interval::IntervalHistogramSet(edges))};
    result.workload = workload->name();
    interval::IntervalCollector icollector(hierarchy.l1i().num_frames(),
                                           &result.icache.intervals);
    interval::IntervalCollector dcollector(hierarchy.l1d().num_frames(),
                                           &result.dcache.intervals);
    prefetch::StridePredictor stride(config.stride);
    CollectingListener collecting(config.hierarchy, &icollector,
                                  &dcollector, &stride,
                                  config.nl_lead_time);
    RecordingListener recording(&collecting);

    oracle::ReferenceCore core(config.core, &hierarchy, workload.get(),
                               &recording);
    result.core = core.run(config.instructions);
    icollector.finalize(result.core.cycles);
    dcollector.finalize(result.core.cycles);
    result.icache.stats = hierarchy.l1i().stats();
    result.dcache.stats = hierarchy.l1d().stats();
    result.l2 = hierarchy.l2().stats();
    return {serialize_result(result), std::move(recording.accesses)};
}

bool
same_access(const sim::AccessResult &a, const sim::AccessResult &b)
{
    return a.hit == b.hit && a.frame == b.frame && a.evicted == b.evicted &&
           a.victim_block == b.victim_block;
}

/**
 * Replay @p accesses in order through reference L1I, L1D and L2 caches
 * seeded like sim::Hierarchy's (11, 13, 17); true iff every recorded
 * AccessResult is reproduced.
 */
bool
replay_matches(const ProgramSpec &spec,
               const std::vector<RecordedAccess> &accesses)
{
    ReferenceCache l1i(spec.hierarchy.l1i, 11);
    ReferenceCache l1d(spec.hierarchy.l1d, 13);
    ReferenceCache l2(spec.hierarchy.l2, 17);
    for (const RecordedAccess &a : accesses) {
        ReferenceCache &l1 = a.instr ? l1i : l1d;
        if (!same_access(l1.access(a.addr), a.result.l1))
            return false;
        if (!a.result.l1.hit && !same_access(l2.access(a.addr), a.result.l2))
            return false;
    }
    return true;
}

/**
 * Run one spec through run_experiment and the oracle pipeline; true
 * iff both serialize identically and the oracle's recorded cache
 * stream replays exactly through the reference caches.
 */
bool
equivalent(const ProgramSpec &spec)
{
    auto workload = build_program(spec);
    const std::string kernel =
        serialize_result(run_experiment(*workload, config_for(spec)));
    const OracleRun oracle = oracle_run(spec);
    return kernel == oracle.bytes && replay_matches(spec, oracle.accesses);
}

std::string
describe_node(const NodeSpec &node)
{
    if (node.kind == NodeSpec::Kind::Block) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "block{instrs=%u mem=%.2f p=%d}",
                      node.block.instrs, node.block.mem_fraction,
                      node.block.pattern);
        return buf;
    }
    std::string out = "loop{trips=" + std::to_string(node.min_trips) +
                      ".." + std::to_string(node.max_trips) + " [";
    for (const NodeSpec &child : node.body)
        out += describe_node(child) + " ";
    out += "]}";
    return out;
}

/**
 * Greedy structural minimization: repeatedly drop top-level nodes
 * while the mismatch persists, then print what is left.
 */
std::string
minimize_and_describe(ProgramSpec spec)
{
    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        for (std::size_t i = 0;
             i < spec.nodes.size() && spec.nodes.size() > 1; ++i) {
            ProgramSpec candidate = spec;
            candidate.nodes.erase(candidate.nodes.begin() +
                                  static_cast<std::ptrdiff_t>(i));
            if (!equivalent(candidate)) {
                spec = std::move(candidate);
                shrunk = true;
                break;
            }
        }
    }
    std::string out = "seed=" + std::to_string(spec.seed) +
                      " instructions=" +
                      std::to_string(spec.instructions) + "\n";
    if (spec.kind != ProgramSpec::Kind::CallGraph) {
        for (const NodeSpec &node : spec.nodes)
            out += "  " + describe_node(node) + "\n";
    }
    if (spec.kind != ProgramSpec::Kind::Loop) {
        const workload::CallGraphSpec &cg = spec.graph;
        out += "  callgraph{functions=" + std::to_string(cg.num_functions) +
               " instrs=" + std::to_string(cg.min_instrs) + ".." +
               std::to_string(cg.max_instrs) +
               " fanout=" + std::to_string(cg.fanout) +
               " repeats=" + std::to_string(cg.repeat_min) + ".." +
               std::to_string(cg.repeat_max) + "}\n";
    }
    if (spec.kind == ProgramSpec::Kind::Composite) {
        out += "  quanta=" + std::to_string(spec.loop_quantum) + "/" +
               std::to_string(spec.graph_quantum) + "\n";
    }
    out += "  patterns=" + std::to_string(spec.patterns.size()) +
           " l1i=" + std::to_string(spec.hierarchy.l1i.size_bytes) +
           "B/" + std::to_string(spec.hierarchy.l1i.associativity) +
           "w l1d=" + std::to_string(spec.hierarchy.l1d.size_bytes) +
           "B/" + std::to_string(spec.hierarchy.l1d.associativity) +
           "w l2=" + std::to_string(spec.hierarchy.l2.size_bytes) + "B";
    return out;
}

/** A small random CacheConfig for the bare-cache stream differential. */
sim::CacheConfig
random_cache(util::Rng &rng, sim::ReplacementKind kind)
{
    sim::CacheConfig c;
    c.name = "kz-bare";
    c.line_bytes = 16u << rng.next_below(3); // 16, 32, 64
    c.associativity = 1u << rng.next_below(5); // 1..16 (packable)
    c.size_bytes = (c.line_bytes * c.associativity)
                   << rng.next_below(4); // 1..8 sets
    c.hit_latency = 1;
    c.replacement = kind;
    return c;
}

} // namespace

/**
 * The main gate: 1000 random programs, every one byte-identical
 * between run_experiment and the oracle pipeline.
 */
TEST(KernelEquivalence, FuzzedExperimentsAreByteIdentical)
{
    constexpr std::uint64_t kPrograms = 1000;
    for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
        const ProgramSpec spec = random_program(seed);
        if (!equivalent(spec)) {
            FAIL() << "kernel/oracle divergence; minimized:\n"
                   << minimize_and_describe(spec);
        }
    }
}

/**
 * Bare-cache lockstep: identical address streams through a sim::Cache
 * and a ReferenceCache must agree on every per-access observable —
 * the eviction stream (evicted/victim_block) and, under Random
 * replacement, the RNG draw stream, not just end-of-run aggregates.
 */
TEST(KernelEquivalence, BareCacheStreamsMatch)
{
    constexpr std::uint64_t kGeometries = 60;
    constexpr std::uint64_t kAccesses = 20'000;
    for (const sim::ReplacementKind kind :
         {sim::ReplacementKind::Lru, sim::ReplacementKind::Fifo,
          sim::ReplacementKind::Random}) {
        for (std::uint64_t g = 1; g <= kGeometries; ++g) {
            util::Rng rng(g * 0x9e3779b97f4a7c15ULL +
                          static_cast<std::uint64_t>(kind));
            const sim::CacheConfig config = random_cache(rng, kind);
            const std::uint64_t cache_seed = rng.next_u64() | 1;
            sim::Cache kernel(config, cache_seed);
            ReferenceCache reference(config, cache_seed);

            // A footprint a few times the cache keeps the miss rate
            // high enough that evictions dominate the stream.
            const std::uint64_t span = config.size_bytes * 4;
            for (std::uint64_t i = 0; i < kAccesses; ++i) {
                const Addr addr = rng.next_below(span);
                const sim::AccessResult k = kernel.access(addr);
                const sim::AccessResult r = reference.access(addr);
                ASSERT_EQ(k.hit, r.hit)
                    << "geometry " << g << " access " << i;
                ASSERT_EQ(k.frame, r.frame)
                    << "geometry " << g << " access " << i;
                ASSERT_EQ(k.evicted, r.evicted)
                    << "geometry " << g << " access " << i;
                ASSERT_EQ(k.victim_block, r.victim_block)
                    << "geometry " << g << " access " << i;
            }
            EXPECT_EQ(kernel.stats().hits, reference.stats().hits);
            EXPECT_EQ(kernel.stats().evictions,
                      reference.stats().evictions);
            EXPECT_GT(kernel.stats().evictions, 0u);

            // Snapshot-able policies must also agree on the canonical
            // decision state (Random appends nothing on both sides).
            std::vector<std::uint64_t> ks;
            std::vector<std::uint64_t> rs;
            ASSERT_EQ(kernel.append_state(ks),
                      reference.append_state(rs));
            EXPECT_EQ(ks, rs);
        }
    }
}

/**
 * 16 ways is the widest geometry the cache model accepts, and the one
 * whose rank word has no filler nibble: every decision must match the
 * oracle's under all three policies.
 */
TEST(KernelEquivalence, WidestSetsMatchTheOracle)
{
    sim::CacheConfig config;
    config.name = "kz-wide";
    config.line_bytes = 32;
    config.associativity = sim::kMaxAssociativity;
    config.size_bytes = 32u * config.associativity * 4; // 4 sets
    config.hit_latency = 1;
    for (const sim::ReplacementKind kind :
         {sim::ReplacementKind::Lru, sim::ReplacementKind::Fifo,
          sim::ReplacementKind::Random}) {
        config.replacement = kind;
        sim::Cache kernel(config, 99);
        ReferenceCache reference(config, 99);
        util::Rng rng(4242);
        for (std::uint64_t i = 0; i < 50'000; ++i) {
            const Addr addr = rng.next_below(config.size_bytes * 6);
            ASSERT_TRUE(same_access(kernel.access(addr),
                                    reference.access(addr)))
                << sim::replacement_name(kind) << " access " << i;
        }
        std::vector<std::uint64_t> ks;
        std::vector<std::uint64_t> rs;
        ASSERT_EQ(kernel.append_state(ks), reference.append_state(rs));
        EXPECT_EQ(ks, rs) << sim::replacement_name(kind);
    }
}

/**
 * reset() must clear the kernel's derived state (rank words and the
 * same-block filter): a reset cache replays a stream exactly like a
 * fresh oracle.
 */
TEST(KernelEquivalence, ResetRestoresColdBehaviour)
{
    for (const sim::ReplacementKind kind :
         {sim::ReplacementKind::Lru, sim::ReplacementKind::Fifo,
          sim::ReplacementKind::Random}) {
        util::Rng geo(7);
        sim::CacheConfig config = random_cache(geo, kind);
        ReferenceCache once(config, 5);
        sim::Cache twice(config, 5);

        util::Rng warm(123);
        for (std::uint64_t i = 0; i < 5'000; ++i)
            twice.access(warm.next_below(config.size_bytes * 4));
        twice.reset();

        util::Rng replay_a(321);
        util::Rng replay_b(321);
        for (std::uint64_t i = 0; i < 5'000; ++i) {
            const Addr a = replay_a.next_below(config.size_bytes * 4);
            const Addr b = replay_b.next_below(config.size_bytes * 4);
            const sim::AccessResult ra = once.access(a);
            const sim::AccessResult rb = twice.access(b);
            ASSERT_EQ(ra.hit, rb.hit) << "access " << i;
            ASSERT_EQ(ra.frame, rb.frame) << "access " << i;
            ASSERT_EQ(ra.victim_block, rb.victim_block)
                << "access " << i;
        }
        EXPECT_EQ(once.stats().hits, twice.stats().hits);
    }
}
