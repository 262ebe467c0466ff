/**
 * @file
 * Tests of the in-order timing core: fetch-group formation, one L1I
 * access per group, miss stall accounting with the overlap model,
 * listener callback plumbing, and a differential against the one-µop
 * ReferenceCore (tests/reference_core.hpp) over random streams and
 * core shapes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/inorder_core.hpp"
#include "reference_core.hpp"
#include "sim/hierarchy.hpp"
#include "util/random.hpp"
#include "workload/workload.hpp"

using namespace leakbound;
using namespace leakbound::cpu;
using trace::InstrKind;
using trace::MicroOp;

namespace {

/**
 * Scripted workload: replays a fixed vector of micro-ops, packing each
 * stretch of consecutive PCs into one run.
 */
class ScriptedWorkload final : public workload::Workload
{
  public:
    explicit ScriptedWorkload(std::vector<MicroOp> ops)
        : ops_(std::move(ops))
    {
    }

    std::string name() const override { return "scripted"; }

    std::uint64_t
    next_runs(workload::RunBatch &batch, std::uint64_t max_instrs) override
    {
        std::uint64_t got = 0;
        workload::Run *run = nullptr;
        while (got < max_instrs && pos_ < ops_.size() && !batch.full()) {
            const MicroOp &op = ops_[pos_];
            if (run == nullptr ||
                op.pc != run->pc + run->instrs * workload::kRunInstrBytes) {
                run = &batch.runs[batch.num_runs++];
                *run = workload::Run{op.pc, 0, 0};
            }
            if (op.kind != InstrKind::Op) {
                batch.refs[batch.num_refs++] =
                    workload::MemRef{op.addr, run->instrs, op.kind};
                ++run->mem_count;
            }
            ++run->instrs;
            ++pos_;
            ++got;
        }
        return got;
    }

    void reset() override { pos_ = 0; }

  private:
    std::vector<MicroOp> ops_;
    std::size_t pos_ = 0;
};

/** Records every callback. */
class RecordingListener final : public AccessListener
{
  public:
    struct InstrEvent
    {
        Cycle cycle;
        Pc pc;
        bool hit;
    };
    struct DataEvent
    {
        Cycle cycle;
        Pc pc;
        Addr addr;
        bool is_store;
        bool hit;
    };

    void
    on_instr_access(Cycle cycle, Pc pc,
                    const sim::HierarchyResult &result) override
    {
        instr.push_back({cycle, pc, result.l1.hit});
    }

    void
    on_data_access(Cycle cycle, Pc pc, Addr addr, bool is_store,
                   const sim::HierarchyResult &result) override
    {
        data.push_back({cycle, pc, addr, is_store, result.l1.hit});
    }

    std::vector<InstrEvent> instr;
    std::vector<DataEvent> data;
};

MicroOp
op_at(Pc pc, InstrKind kind = InstrKind::Op, Addr addr = kInvalidAddr)
{
    MicroOp op;
    op.pc = pc;
    op.kind = kind;
    op.addr = addr;
    return op;
}

/** N sequential non-memory ops starting at pc. */
std::vector<MicroOp>
straight_line(Pc pc, int n)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back(op_at(pc + 4 * i));
    return ops;
}

} // namespace

TEST(InOrderCore, FourWideGroupsOneFetchEach)
{
    // 16 sequential instructions in one cache line -> 4 groups.
    ScriptedWorkload w(straight_line(0x1000, 16));
    sim::Hierarchy h{sim::HierarchyConfig{}};
    RecordingListener listener;
    InOrderCore core(CoreConfig{}, &h, &w, &listener);
    const CoreRunStats stats = core.run(1'000'000);

    EXPECT_EQ(stats.instructions, 16u);
    EXPECT_EQ(stats.fetch_groups, 4u);
    EXPECT_EQ(listener.instr.size(), 4u);
    EXPECT_EQ(h.l1i().stats().accesses, 4u);
    // Only the first group misses (cold); the line then stays warm.
    EXPECT_EQ(h.l1i().stats().misses, 1u);
}

TEST(InOrderCore, GroupBreaksAtLineBoundary)
{
    // Two instructions straddling a 64B line boundary cannot share a
    // group even though the PCs are sequential.
    std::vector<MicroOp> ops = {op_at(0x1038), op_at(0x103c),
                                op_at(0x1040), op_at(0x1044)};
    ScriptedWorkload w(ops);
    sim::Hierarchy h{sim::HierarchyConfig{}};
    RecordingListener listener;
    InOrderCore core(CoreConfig{}, &h, &w, &listener);
    const CoreRunStats stats = core.run(100);
    EXPECT_EQ(stats.fetch_groups, 2u);
    EXPECT_EQ(listener.instr[0].pc, 0x1038u);
    EXPECT_EQ(listener.instr[1].pc, 0x1040u);
}

TEST(InOrderCore, GroupBreaksAtTakenBranch)
{
    // A PC discontinuity (taken branch) ends the group.
    std::vector<MicroOp> ops = {op_at(0x1000), op_at(0x1004),
                                op_at(0x2000), op_at(0x2004)};
    ScriptedWorkload w(ops);
    sim::Hierarchy h{sim::HierarchyConfig{}};
    InOrderCore core(CoreConfig{}, &h, &w, nullptr);
    const CoreRunStats stats = core.run(100);
    EXPECT_EQ(stats.fetch_groups, 2u);
    EXPECT_EQ(stats.instructions, 4u);
}

TEST(InOrderCore, CyclesAdvancePerGroupPlusStalls)
{
    // All hits after warmup: 1 cycle per group.
    std::vector<MicroOp> ops = straight_line(0x1000, 8);
    ScriptedWorkload warm(ops);
    sim::HierarchyConfig cfg;
    sim::Hierarchy h{cfg};
    // Pre-warm the caches.
    h.access_instr(0x1000);
    InOrderCore core(CoreConfig{}, &h, &warm, nullptr);
    const CoreRunStats stats = core.run(100);
    EXPECT_EQ(stats.fetch_groups, 2u);
    EXPECT_EQ(stats.cycles, 2u);
    EXPECT_EQ(stats.instr_stall_cycles, 0u);
}

TEST(InOrderCore, MissStallUsesOverlapDiscount)
{
    // Cold fetch: L1I+L2 miss -> memory (100) - 1 = 99 raw penalty,
    // discounted to 50% -> 49-50 cycles of stall (rounding).
    ScriptedWorkload w(straight_line(0x1000, 4));
    sim::HierarchyConfig cfg;
    sim::Hierarchy h{cfg};
    CoreConfig core_cfg;
    core_cfg.miss_overlap_percent = 50;
    InOrderCore core(core_cfg, &h, &w, nullptr);
    const CoreRunStats stats = core.run(100);
    EXPECT_EQ(stats.fetch_groups, 1u);
    const Cycles raw_penalty = cfg.memory_latency - cfg.l1i.hit_latency;
    EXPECT_EQ(stats.cycles, 1 + (raw_penalty * 50 + 50) / 100);

    // Fully blocking configuration charges the whole penalty.
    ScriptedWorkload w2(straight_line(0x9000, 4));
    sim::Hierarchy h2{cfg};
    core_cfg.miss_overlap_percent = 100;
    InOrderCore blocking(core_cfg, &h2, &w2, nullptr);
    EXPECT_EQ(blocking.run(100).cycles, 1 + raw_penalty);
}

TEST(InOrderCore, DataAccessesReachTheL1D)
{
    std::vector<MicroOp> ops = {
        op_at(0x1000, InstrKind::Load, 0x80000),
        op_at(0x1004, InstrKind::Store, 0x80008),
        op_at(0x1008),
    };
    ScriptedWorkload w(ops);
    sim::Hierarchy h{sim::HierarchyConfig{}};
    RecordingListener listener;
    InOrderCore core(CoreConfig{}, &h, &w, &listener);
    const CoreRunStats stats = core.run(100);

    EXPECT_EQ(stats.loads, 1u);
    EXPECT_EQ(stats.stores, 1u);
    ASSERT_EQ(listener.data.size(), 2u);
    EXPECT_FALSE(listener.data[0].is_store);
    EXPECT_TRUE(listener.data[1].is_store);
    EXPECT_EQ(listener.data[1].addr, 0x80008u);
    EXPECT_EQ(h.l1d().stats().accesses, 2u);
    // Same line: first misses, second hits.
    EXPECT_EQ(h.l1d().stats().hits, 1u);
}

TEST(InOrderCore, ZeroFetchWidthIsATypedError)
{
    CoreConfig bad;
    bad.fetch_width = 0;
    const util::Status status = bad.validate();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.kind(), util::ErrorKind::InvalidArgument);

    // The constructor surfaces the same status as an exception — a
    // malformed request fails its own job instead of aborting.
    ScriptedWorkload w(straight_line(0x1000, 4));
    sim::Hierarchy h{sim::HierarchyConfig{}};
    EXPECT_THROW(InOrderCore(bad, &h, &w, nullptr), util::StatusError);
    EXPECT_TRUE(CoreConfig{}.validate().ok());
}

TEST(InOrderCore, BatchedAndUnbatchedFetchAgree)
{
    // A hooked run refills its run buffer one instruction at a time
    // (the analytic fast path relies on it): the op stream and all
    // statistics must match a batched run.
    ScriptedWorkload wa(straight_line(0x1000, 100));
    ScriptedWorkload wb(straight_line(0x1000, 100));
    sim::Hierarchy ha{sim::HierarchyConfig{}};
    sim::Hierarchy hb{sim::HierarchyConfig{}};
    InOrderCore batched(CoreConfig{}, &ha, &wa, nullptr);
    InOrderCore unbatched(CoreConfig{}, &hb, &wb, nullptr);
    std::uint64_t hook_calls = 0;
    const CoreRunStats a = batched.run(1'000'000);
    const CoreRunStats b =
        unbatched.run(1'000'000, [&hook_calls](const CoreRunStats &) {
            ++hook_calls;
            return true;
        });
    EXPECT_EQ(hook_calls, b.fetch_groups);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.fetch_groups, b.fetch_groups);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
}

TEST(InOrderCore, RespectsInstructionBudget)
{
    ScriptedWorkload w(straight_line(0x1000, 100));
    sim::Hierarchy h{sim::HierarchyConfig{}};
    InOrderCore core(CoreConfig{}, &h, &w, nullptr);
    const CoreRunStats stats = core.run(10);
    EXPECT_EQ(stats.instructions, 10u);
}

TEST(InOrderCore, StopsWhenWorkloadEnds)
{
    ScriptedWorkload w(straight_line(0x1000, 5));
    sim::Hierarchy h{sim::HierarchyConfig{}};
    InOrderCore core(CoreConfig{}, &h, &w, nullptr);
    const CoreRunStats stats = core.run(1'000'000);
    EXPECT_EQ(stats.instructions, 5u);
    EXPECT_GT(stats.cycles, 0u);
}

TEST(InOrderCore, ListenerSeesMonotoneCycles)
{
    // Interval collection depends on per-frame time-ordering; the
    // core must emit callbacks with non-decreasing cycles.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 64; ++i) {
        ops.push_back(op_at(0x1000 + 4 * i,
                            i % 3 ? InstrKind::Op : InstrKind::Load,
                            i % 3 ? kInvalidAddr : 0x90000 + 64 * i));
    }
    ScriptedWorkload w(ops);
    sim::Hierarchy h{sim::HierarchyConfig{}};
    RecordingListener listener;
    InOrderCore core(CoreConfig{}, &h, &w, &listener);
    core.run(1'000'000);
    Cycle prev = 0;
    for (const auto &e : listener.instr) {
        EXPECT_GE(e.cycle, prev);
        prev = e.cycle;
    }
    prev = 0;
    for (const auto &e : listener.data) {
        EXPECT_GE(e.cycle, prev);
        prev = e.cycle;
    }
}

TEST(InOrderCore, MatchesTheOneUopReferenceCore)
{
    // Random streams of straight stretches (some continuing the last
    // one, some 8 bytes apart, memory-dense enough to fill a batch's
    // reference array) under random fetch widths, instruction sizes,
    // budgets and hooked/unhooked runs: every callback and statistic
    // must match the core that rebuilds groups one peeked µop at a
    // time.
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        util::Rng rng(seed);
        std::vector<MicroOp> ops;
        Pc pc = 0x1000;
        while (ops.size() < 3000) {
            if (rng.next_bool(0.7))
                pc = 0x1000 + 4 * rng.next_below(4096);
            const Pc step = rng.next_bool(0.15) ? 8 : 4;
            const double mem = rng.next_double();
            const std::uint64_t len = 1 + rng.next_below(
                                              rng.next_bool(0.5) ? 8 : 300);
            for (std::uint64_t i = 0; i < len; ++i, pc += step) {
                if (rng.next_bool(mem)) {
                    ops.push_back(op_at(pc,
                                        rng.next_bool(0.3) ? InstrKind::Store
                                                           : InstrKind::Load,
                                        0x80000 + 8 * rng.next_below(8192)));
                } else {
                    ops.push_back(op_at(pc));
                }
            }
        }
        CoreConfig config;
        config.fetch_width = 1 + static_cast<std::uint32_t>(rng.next_below(8));
        config.instr_bytes = rng.next_bool(0.2) ? 8 : 4;
        config.miss_overlap_percent =
            static_cast<std::uint32_t>(rng.next_below(101));
        const std::uint64_t budget = 1 + rng.next_below(3500);
        const bool hooked = seed % 3 == 0;

        ScriptedWorkload wa(ops);
        ScriptedWorkload wb(ops);
        sim::Hierarchy ha{sim::HierarchyConfig{}};
        sim::Hierarchy hb{sim::HierarchyConfig{}};
        RecordingListener la;
        RecordingListener lb;
        InOrderCore core(config, &ha, &wa, &la);
        oracle::ReferenceCore reference(config, &hb, &wb, &lb);
        const CoreRunStats a =
            hooked ? core.run(budget,
                              [](const CoreRunStats &) { return true; })
                   : core.run(budget);
        const CoreRunStats b = reference.run(budget);

        ASSERT_EQ(a.instructions, b.instructions) << "seed " << seed;
        ASSERT_EQ(a.cycles, b.cycles) << "seed " << seed;
        ASSERT_EQ(a.fetch_groups, b.fetch_groups) << "seed " << seed;
        ASSERT_EQ(a.loads, b.loads) << "seed " << seed;
        ASSERT_EQ(a.stores, b.stores) << "seed " << seed;
        ASSERT_EQ(a.instr_stall_cycles, b.instr_stall_cycles);
        ASSERT_EQ(a.data_stall_cycles, b.data_stall_cycles);
        ASSERT_EQ(la.instr.size(), lb.instr.size()) << "seed " << seed;
        for (std::size_t i = 0; i < la.instr.size(); ++i) {
            ASSERT_EQ(la.instr[i].cycle, lb.instr[i].cycle) << "seed " << seed;
            ASSERT_EQ(la.instr[i].pc, lb.instr[i].pc) << "seed " << seed;
        }
        ASSERT_EQ(la.data.size(), lb.data.size()) << "seed " << seed;
        for (std::size_t i = 0; i < la.data.size(); ++i) {
            ASSERT_EQ(la.data[i].cycle, lb.data[i].cycle) << "seed " << seed;
            ASSERT_EQ(la.data[i].pc, lb.data[i].pc) << "seed " << seed;
            ASSERT_EQ(la.data[i].addr, lb.data[i].addr) << "seed " << seed;
            ASSERT_EQ(la.data[i].is_store, lb.data[i].is_store);
        }
    }
}

TEST(InOrderCore, StateSignatureHoldsOnlyTheBufferedInstruction)
{
    // Between the groups of a hooked run the workload is at most one
    // peeked instruction ahead, and append_state() lists exactly what
    // is buffered: a count, then pc, kind and address per instruction.
    std::vector<MicroOp> ops = straight_line(0x1000, 6);
    ops[5] = op_at(0x1014, InstrKind::Load, 0x9000);
    ops.push_back(op_at(0x4000)); // a taken branch
    ScriptedWorkload w(ops);
    sim::Hierarchy h{sim::HierarchyConfig{}};
    InOrderCore core(CoreConfig{}, &h, &w, nullptr);
    std::vector<std::vector<std::uint64_t>> signatures;
    core.run(100, [&](const CoreRunStats &) {
        signatures.emplace_back();
        core.append_state(signatures.back());
        return true;
    });
    ASSERT_EQ(signatures.size(), 3u);
    // A full group peeks nothing.
    EXPECT_EQ(signatures[0], std::vector<std::uint64_t>{0});
    // The second group stops at the branch it peeked.
    EXPECT_EQ(signatures[1],
              (std::vector<std::uint64_t>{1, 0x4000, 0, 0}));
    EXPECT_EQ(signatures[2], std::vector<std::uint64_t>{0});
}
