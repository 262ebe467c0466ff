/**
 * @file
 * Tests of the workload substrate: data-pattern semantics, loop
 * program structure and determinism, the call-graph walker, phase
 * composition, and the six-benchmark suite registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "workload/callgraph.hpp"
#include "workload/data_pattern.hpp"
#include "workload/loop_program.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;
using namespace leakbound::workload;
using trace::InstrKind;
using trace::MicroOp;

// -------------------------------------------------------- data patterns

TEST(DataPattern, SequentialWrapsRegion)
{
    auto p = make_sequential(0x1000, 32, 8);
    EXPECT_EQ(p->next(), 0x1000u);
    EXPECT_EQ(p->next(), 0x1008u);
    EXPECT_EQ(p->next(), 0x1010u);
    EXPECT_EQ(p->next(), 0x1018u);
    EXPECT_EQ(p->next(), 0x1000u); // wrapped
    p->reset();
    EXPECT_EQ(p->next(), 0x1000u);
}

TEST(DataPattern, StridedVisitsStridePoints)
{
    auto p = make_strided(0, 16, 8, 4);
    EXPECT_EQ(p->next(), 0u);
    EXPECT_EQ(p->next(), 32u);
    EXPECT_EQ(p->next(), 64u);
    EXPECT_EQ(p->next(), 96u);
    // Wrap advances the phase so the next sweep covers new elements.
    EXPECT_EQ(p->next(), 8u);
}

TEST(DataPattern, RandomStaysInRegionAndIsSeeded)
{
    auto a = make_random(0x2000, 256, 8, 5);
    auto b = make_random(0x2000, 256, 8, 5);
    for (int i = 0; i < 1000; ++i) {
        const Addr x = a->next();
        EXPECT_EQ(x, b->next());
        EXPECT_GE(x, 0x2000u);
        EXPECT_LT(x, 0x2100u);
        EXPECT_EQ(x % 8, 0u);
    }
}

TEST(DataPattern, PointerChaseIsFullCyclePermutation)
{
    const std::uint64_t nodes = 64;
    auto p = make_pointer_chase(0, nodes, 64, 9);
    std::set<Addr> seen;
    for (std::uint64_t i = 0; i < nodes; ++i)
        seen.insert(p->next());
    EXPECT_EQ(seen.size(), nodes); // visits every node once
    // The next draw restarts the same cycle.
    const Addr again = p->next();
    EXPECT_TRUE(seen.count(again));
}

TEST(DataPattern, StackStaysBelowTop)
{
    auto p = make_stack(0x7000, 256, 3);
    for (int i = 0; i < 1000; ++i) {
        const Addr x = p->next();
        EXPECT_LT(x, 0x7000u);
        EXPECT_GE(x, 0x7000u - 256 - 64);
    }
}

// --------------------------------------------------------- loop program

namespace {

LoopProgram
two_level_loop()
{
    std::vector<DataPatternPtr> patterns;
    patterns.push_back(make_sequential(0x10000, 1024, 4));
    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_loop(
        3, 3,
        {NodeSpec::make_block({8, 0.5, 0.25, 0}),
         NodeSpec::make_loop(2, 2, {NodeSpec::make_block({4, 0.0, 0.0, -1})})}));
    return LoopProgram("two-level", 0x1000, std::move(body),
                       std::move(patterns), 42);
}

} // namespace

TEST(LoopProgram, DeterministicAcrossInstancesAndReset)
{
    LoopProgram a = two_level_loop();
    LoopProgram b = two_level_loop();
    std::vector<MicroOp> first;
    for (int i = 0; i < 500; ++i) {
        MicroOp oa, ob;
        ASSERT_TRUE(a.next(oa));
        ASSERT_TRUE(b.next(ob));
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.kind, ob.kind);
        EXPECT_EQ(oa.addr, ob.addr);
        first.push_back(oa);
    }
    a.reset();
    for (int i = 0; i < 500; ++i) {
        MicroOp op;
        ASSERT_TRUE(a.next(op));
        EXPECT_EQ(op.pc, first[i].pc);
        EXPECT_EQ(op.addr, first[i].addr);
    }
}

TEST(LoopProgram, PcsStayInsideFootprint)
{
    LoopProgram p = two_level_loop();
    for (int i = 0; i < 10'000; ++i) {
        MicroOp op;
        ASSERT_TRUE(p.next(op));
        EXPECT_GE(op.pc, 0x1000u);
        EXPECT_LT(op.pc, 0x1000u + p.code_bytes());
        if (op.kind != InstrKind::Op) {
            EXPECT_GE(op.addr, 0x10000u);
            EXPECT_LT(op.addr, 0x10000u + 1024u);
        } else {
            EXPECT_EQ(op.addr, kInvalidAddr);
        }
    }
}

TEST(LoopProgram, BlockKindsAreStaticPerPc)
{
    // A static instruction must always be the same kind (the layout is
    // fixed at construction).
    LoopProgram p = two_level_loop();
    std::map<Pc, InstrKind> kinds;
    for (int i = 0; i < 20'000; ++i) {
        MicroOp op;
        ASSERT_TRUE(p.next(op));
        auto [it, inserted] = kinds.emplace(op.pc, op.kind);
        if (!inserted) {
            EXPECT_EQ(it->second, op.kind) << "pc " << op.pc;
        }
    }
}

TEST(LoopProgram, VariableTripsVaryPerEntry)
{
    // A loop with trips in [1, 100] must produce different iteration
    // counts across entries (Fig. 2's varying inner range).
    std::vector<DataPatternPtr> patterns;
    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_block({4, 0.0, 0.0, -1})); // marker
    body.push_back(NodeSpec::make_loop(
        1, 100, {NodeSpec::make_block({4, 0.0, 0.0, -1})}));
    LoopProgram p("varloop", 0x1000, std::move(body), std::move(patterns),
                  7);
    // Count inner-block instructions between marker sightings.
    std::set<int> counts;
    int since_marker = 0;
    MicroOp op;
    for (int i = 0; i < 50'000 && counts.size() < 5; ++i) {
        ASSERT_TRUE(p.next(op));
        if (op.pc == 0x1000) { // marker block start
            counts.insert(since_marker);
            since_marker = 0;
        }
        ++since_marker;
    }
    EXPECT_GE(counts.size(), 5u) << "trip counts never varied";
}

TEST(LoopProgram, RejectsBadPatternIndex)
{
    std::vector<DataPatternPtr> patterns; // empty pool
    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_block({4, 0.5, 0.0, 0}));
    EXPECT_EXIT(LoopProgram("bad", 0x1000, std::move(body),
                            std::move(patterns), 1),
                ::testing::ExitedWithCode(2), "pattern");
}

// ------------------------------------------------------------ callgraph

TEST(CallGraph, DeterministicAndInFootprint)
{
    CallGraphSpec spec;
    spec.num_functions = 16;
    spec.min_instrs = 8;
    spec.max_instrs = 32;
    std::vector<DataPatternPtr> pa, pb;
    pa.push_back(make_random(0x100000, 4096, 8, 1));
    pb.push_back(make_random(0x100000, 4096, 8, 1));
    CallGraphProgram a("cg", 0x4000, spec, std::move(pa), 11);
    CallGraphProgram b("cg", 0x4000, spec, std::move(pb), 11);
    for (int i = 0; i < 5000; ++i) {
        MicroOp oa, ob;
        ASSERT_TRUE(a.next(oa));
        ASSERT_TRUE(b.next(ob));
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_GE(oa.pc, 0x4000u);
        EXPECT_LT(oa.pc, 0x4000u + a.code_bytes());
    }
}

TEST(CallGraph, VisitsManyFunctions)
{
    CallGraphSpec spec;
    spec.num_functions = 64;
    spec.min_instrs = 8;
    spec.max_instrs = 16;
    spec.mem_fraction = 0.0;
    CallGraphProgram p("cg", 0x4000, spec, {}, 5);
    std::set<Pc> lines;
    for (int i = 0; i < 100'000; ++i) {
        MicroOp op;
        ASSERT_TRUE(p.next(op));
        lines.insert(op.pc / 64);
    }
    // The walk must cover a large share of the code footprint.
    EXPECT_GT(lines.size() * 64, p.code_bytes() / 2);
}

TEST(CallGraph, RejectsBadSpecs)
{
    CallGraphSpec spec;
    spec.min_instrs = 10;
    spec.max_instrs = 5;
    EXPECT_EXIT(CallGraphProgram("bad", 0x4000, spec, {}, 1),
                ::testing::ExitedWithCode(2), "body size");
    CallGraphSpec spec2;
    spec2.mem_fraction = 0.5;
    EXPECT_EXIT(CallGraphProgram("bad2", 0x4000, spec2, {}, 1),
                ::testing::ExitedWithCode(2), "data patterns");
}

// ------------------------------------------------------------ composite

TEST(Composite, RotatesPhasesByQuantum)
{
    auto make_marker = [](Pc base) {
        std::vector<DataPatternPtr> none;
        std::vector<NodeSpec> body;
        body.push_back(NodeSpec::make_block({4, 0.0, 0.0, -1}));
        return std::make_unique<LoopProgram>("m", base, std::move(body),
                                             std::move(none), 1);
    };
    std::vector<CompositeWorkload::Phase> phases;
    phases.push_back({make_marker(0x1000), 10});
    phases.push_back({make_marker(0x9000), 10});
    CompositeWorkload comp("comp", std::move(phases));

    int switches = 0;
    bool in_first = true;
    for (int i = 0; i < 100; ++i) {
        MicroOp op;
        ASSERT_TRUE(comp.next(op));
        const bool first = op.pc < 0x9000;
        if (first != in_first) {
            ++switches;
            in_first = first;
        }
    }
    EXPECT_GE(switches, 8); // 100 instructions / 10-instruction quanta
}

// ----------------------------------------------------------- spec suite

TEST(SpecSuite, AllSixBenchmarksConstructAndRun)
{
    for (const std::string &name : suite_names()) {
        WorkloadPtr w = make_benchmark(name);
        ASSERT_NE(w, nullptr) << name;
        EXPECT_EQ(w->name(), name);
        MicroOp op;
        for (int i = 0; i < 10'000; ++i)
            ASSERT_TRUE(w->next(op)) << name;
    }
}

TEST(SpecSuite, UnknownNameIsFatal)
{
    EXPECT_EXIT((void)make_benchmark("perlbmk"),
                ::testing::ExitedWithCode(2), "unknown benchmark");
}

TEST(SpecSuite, EveryNameIsItsWorkloadsNameAndKeepsItsCacheKey)
{
    // run_suite_isolated derives a benchmark's artifact key from the
    // requested name and builds the workload only on a miss, so the
    // name must be the one the workload reports.  The keys are pinned
    // (100k instructions, standard edges) so that cache directories
    // written by earlier builds keep hitting.
    const std::vector<std::pair<std::string, std::uint64_t>> pins = {
        {"ammp", 0xf919e9e5f7016cacULL},
        {"applu", 0xdf59918c85eaa966ULL},
        {"gcc", 0xe51fbb5953c5af17ULL},
        {"gzip", 0x8ddd9cf7f536d2d3ULL},
        {"mesa", 0xa2072f4b3a829b71ULL},
        {"vortex", 0xb62c99175e2b16c5ULL},
        {"stream", 0x95a104c67a2a66b9ULL},
        {"stencil", 0x9f29c4f86a1a271cULL},
        {"chase", 0x83eb69426a08ca84ULL},
    };
    core::ExperimentConfig config;
    config.instructions = 100'000;
    config.extra_edges = core::standard_extra_edges();
    const std::uint64_t fp = core::fingerprint_config(config);
    for (const auto &[name, key] : pins) {
        ASSERT_TRUE(is_benchmark(name)) << name;
        EXPECT_EQ(make_benchmark(name)->name(), name);
        EXPECT_EQ(core::fingerprint_entry(fp, name), key) << name;
    }
    // The pins cover every accepted name: the six plus the extras.
    for (const std::string &name : suite_names())
        EXPECT_TRUE(std::any_of(pins.begin(), pins.end(),
                                [&](const auto &p) { return p.first == name; }))
            << name;
}

TEST(SpecSuite, BenchmarksAreDeterministic)
{
    for (const std::string &name : suite_names()) {
        WorkloadPtr a = make_benchmark(name);
        WorkloadPtr b = make_benchmark(name);
        for (int i = 0; i < 2000; ++i) {
            MicroOp oa, ob;
            ASSERT_TRUE(a->next(oa));
            ASSERT_TRUE(b->next(ob));
            ASSERT_EQ(oa.pc, ob.pc) << name << " diverged at op " << i;
            ASSERT_EQ(oa.addr, ob.addr) << name;
        }
    }
}

TEST(SpecSuite, HrLoopIntervalTracksInnerRange)
{
    // Fig. 2's point, measured at the generator level: a larger inner
    // range means more instructions between successive visits to the
    // `add` block.
    auto measure = [](std::uint64_t range) {
        WorkloadPtr w = make_hr_loop(range, range); // fixed trips
        // The add block is the second top-of-month block; find its pc
        // by scanning for the second distinct non-loop block.
        MicroOp op;
        std::map<Pc, std::uint64_t> gaps;
        std::map<Pc, std::uint64_t> last;
        for (std::uint64_t i = 0; i < 200'000; ++i) {
            if (!w->next(op))
                break;
            if (last.count(op.pc))
                gaps[op.pc] = std::max(gaps[op.pc], i - last[op.pc]);
            last[op.pc] = i;
        }
        // The `add` block's re-visit gap is the largest periodic gap
        // inside the month loop; use the maximum over all pcs.
        std::uint64_t best = 0;
        for (auto &[pc, gap] : gaps)
            best = std::max(best, gap);
        return best;
    };
    const std::uint64_t small = measure(4);
    const std::uint64_t large = measure(128);
    EXPECT_GT(large, small * 4);
}

namespace {

/** FNV-1a over @p n little-endian bytes of @p v, continuing @p h. */
std::uint64_t
fnv_mix(std::uint64_t h, std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

TEST(SpecSuite, BenchmarkStreamsArePinned)
{
    // The first 1M µops of every make_benchmark() name at seeds 0 and
    // 1, drawn through next_batch in odd-sized blocks: pc, kind and
    // data address of each µop feed one FNV-1a hash.  Any change to
    // what a generator emits, or to the order of its pattern and trip
    // draws, moves these constants.
    const struct
    {
        const char *name;
        std::uint64_t seed;
        std::uint64_t fnv;
    } pins[] = {
        {"ammp", 0, 0x544d2a30b6deec73ULL},
        {"ammp", 1, 0x24154e628798799eULL},
        {"applu", 0, 0x9b8502550c39802fULL},
        {"applu", 1, 0x1a21708165ddaf74ULL},
        {"gcc", 0, 0xcdb186185ad875b9ULL},
        {"gcc", 1, 0x9c8b3bd464f95369ULL},
        {"gzip", 0, 0xc42ad19dd8538c9fULL},
        {"gzip", 1, 0xf4895d21613314d8ULL},
        {"mesa", 0, 0x2705e1c866422c53ULL},
        {"mesa", 1, 0xcebc01710ccf98b7ULL},
        {"vortex", 0, 0xa9e28e4756c9e13ULL},
        {"vortex", 1, 0x650ea78bc6b0c03cULL},
        {"stream", 0, 0xbfc8c906e7f2b082ULL},
        {"stream", 1, 0x69ef541c5e51e60dULL},
        {"stencil", 0, 0x5795b7ac4f290fefULL},
        {"stencil", 1, 0x49e2ebce7032ed1fULL},
        {"chase", 0, 0x5b06f25a6cecd806ULL},
        {"chase", 1, 0x52cbf7c0b381c026ULL},
    };
    constexpr std::size_t kOps = 1'000'000;
    for (const auto &pin : pins) {
        WorkloadPtr w = make_benchmark(pin.name, pin.seed);
        std::vector<MicroOp> buf(97);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        std::size_t done = 0;
        while (done < kOps) {
            const std::size_t got =
                w->next_batch(buf.data(), std::min(buf.size(), kOps - done));
            ASSERT_GT(got, 0u) << pin.name;
            for (std::size_t i = 0; i < got; ++i) {
                h = fnv_mix(h, buf[i].pc, 8);
                h = fnv_mix(h, static_cast<std::uint64_t>(buf[i].kind), 1);
                h = fnv_mix(h, buf[i].addr, 8);
            }
            done += got;
        }
        EXPECT_EQ(h, pin.fnv) << pin.name << " seed " << pin.seed
                              << std::hex << " got 0x" << h;
    }
}
