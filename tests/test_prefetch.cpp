/**
 * @file
 * Tests of the prefetch substrate: the Farkas twice-confirmed stride
 * rule, table-collision behaviour, next-line coverage windows (with a
 * std::map differential oracle for the paged monitor), and the Figure 9
 * prefetchability analysis.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/inflection.hpp"
#include "interval/interval_histogram.hpp"
#include "power/technology.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/prefetchability.hpp"
#include "prefetch/stride.hpp"
#include "util/random.hpp"

using namespace leakbound;
using namespace leakbound::prefetch;

// --------------------------------------------------------------- stride

TEST(Stride, RequiresTwoConfirmations)
{
    StridePredictor p;
    const Pc pc = 0x4000;
    // a, a+64, a+128: the second access *sets* the stride, the third
    // confirms it once; only the fourth access is covered.
    EXPECT_FALSE(p.access(pc, 0x1000));
    EXPECT_FALSE(p.access(pc, 0x1040)); // stride=64, conf=1
    EXPECT_FALSE(p.access(pc, 0x1080)); // conf=2 after, not before
    EXPECT_TRUE(p.access(pc, 0x10c0));  // predicted
    EXPECT_TRUE(p.access(pc, 0x1100));
    EXPECT_EQ(p.covered(), 2u);
    EXPECT_EQ(p.observed(), 5u);
}

TEST(Stride, BrokenStrideResetsConfidence)
{
    StridePredictor p;
    const Pc pc = 0x4000;
    p.access(pc, 0x1000);
    p.access(pc, 0x1040);
    p.access(pc, 0x1080);
    EXPECT_TRUE(p.access(pc, 0x10c0));
    // Jump: breaks the run.
    EXPECT_FALSE(p.access(pc, 0x9000));
    // New stride must be re-confirmed twice.
    EXPECT_FALSE(p.access(pc, 0x9040));
    EXPECT_FALSE(p.access(pc, 0x9080));
    EXPECT_TRUE(p.access(pc, 0x90c0));
}

TEST(Stride, NegativeStridesWork)
{
    StridePredictor p;
    const Pc pc = 0x4000;
    p.access(pc, 0x5000);
    p.access(pc, 0x4f00);
    p.access(pc, 0x4e00);
    EXPECT_TRUE(p.access(pc, 0x4d00));
}

TEST(Stride, ConfirmedSubLineStrideIsPredicted)
{
    // A repeated 8-byte stride is predicted like any other: prediction
    // is exact-address, so a stride shorter than a line is no special
    // case.
    StridePredictor p;
    const Pc pc = 0x4000;
    p.access(pc, 0x1000);
    p.access(pc, 0x1008);
    p.access(pc, 0x1010);
    EXPECT_TRUE(p.access(pc, 0x1018, 64));
}

TEST(Stride, ChangedStrideWithinTheLineIsNotPredicted)
{
    // The confirmed 8-byte stride predicts 0x1018; a 4-byte step to
    // 0x1014 lands in that same 64-byte line but is not the predicted
    // address, so it is not covered, whatever the line size.
    for (const std::uint32_t line : {64u, 128u, 4096u}) {
        StridePredictor p;
        const Pc pc = 0x4000;
        p.access(pc, 0x1000, line);
        p.access(pc, 0x1008, line);
        p.access(pc, 0x1010, line);
        EXPECT_FALSE(p.access(pc, 0x1014, line)) << "line " << line;
        EXPECT_EQ(p.covered(), 0u);
    }
}

TEST(Stride, DistinctPcsTrackIndependently)
{
    StridePredictor p;
    p.access(0x4000, 0x1000);
    p.access(0x4004, 0x20000);
    p.access(0x4000, 0x1040);
    p.access(0x4004, 0x20010);
    p.access(0x4000, 0x1080);
    p.access(0x4004, 0x20020);
    EXPECT_TRUE(p.access(0x4000, 0x10c0));
    EXPECT_TRUE(p.access(0x4004, 0x20030));
}

TEST(Stride, TableCollisionEvicts)
{
    // Two PCs that alias in a tiny table fight over the entry, so
    // neither ever reaches two confirmations.
    StrideConfig cfg;
    cfg.table_entries = 1;
    StridePredictor p(cfg);
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(p.access(0x4000, 0x1000 + 64 * i));
        EXPECT_FALSE(p.access(0x8000, 0x90000 + 64 * i));
    }
}

TEST(Stride, ResetForgets)
{
    StridePredictor p;
    const Pc pc = 0x4000;
    p.access(pc, 0x1000);
    p.access(pc, 0x1040);
    p.access(pc, 0x1080);
    p.reset();
    EXPECT_FALSE(p.access(pc, 0x10c0));
    EXPECT_EQ(p.observed(), 1u);
}

// ------------------------------------------------------------ next-line

TEST(NextLine, CoversWhenPreviousLineTouchedInWindow)
{
    NextLineMonitor m;
    m.record(99, 500); // block 99 touched at cycle 500
    // Interval of block 100 opened at 400: 99 touched inside -> cover.
    EXPECT_TRUE(m.covers(100, 400));
    // Opened at 600: the touch predates the interval.
    EXPECT_FALSE(m.covers(100, 600));
    // Exactly at the boundary: "within" is strict.
    EXPECT_FALSE(m.covers(100, 500));
}

TEST(NextLine, UnknownPreviousBlockDoesNotCover)
{
    NextLineMonitor m;
    EXPECT_FALSE(m.covers(100, 0));
    EXPECT_FALSE(m.covers(0, 0)); // block 0 has no predecessor
}

TEST(NextLine, LatestTouchWins)
{
    NextLineMonitor m;
    m.record(7, 100);
    m.record(7, 900);
    EXPECT_TRUE(m.covers(8, 500));
    m.reset();
    EXPECT_FALSE(m.covers(8, 0));
}

namespace {

/** The next-line monitor's contract over a plain ordered map. */
class NextLineOracle
{
  public:
    void record(Addr block, Cycle cycle) { last_[block] = cycle; }

    bool
    covers(Addr block, Cycle open_since, Cycle close_cycle,
           Cycles lead_time)
    {
        if (block == 0)
            return false;
        const auto it = last_.find(block - 1);
        if (it == last_.end())
            return false;
        const Cycle deadline =
            close_cycle >= lead_time ? close_cycle - lead_time : 0;
        const bool hit = it->second > open_since && it->second <= deadline;
        covered_ += hit ? 1 : 0;
        return hit;
    }

    void
    append_state(std::vector<std::uint64_t> &out, Cycle now) const
    {
        out.push_back(last_.size());
        for (const auto &[block, when] : last_) {
            out.push_back(block);
            out.push_back(now - when);
        }
    }

    void
    warp(Cycles delta)
    {
        for (auto &entry : last_)
            entry.second += delta;
    }

    void
    reset()
    {
        last_.clear();
        covered_ = 0;
    }

    std::uint64_t covered() const { return covered_; }

  private:
    std::map<Addr, Cycle> last_;
    std::uint64_t covered_ = 0;
};

} // namespace

TEST(NextLine, MatchesMapOracleOnRandomSequences)
{
    // Blocks around the 64-block page edges (block-1 of 0, 64 and 128
    // lies on another page, or on none) and the 4096-page chunk edges
    // (block-1 of 2^18 lies in the previous chunk's last page), a
    // dense low range, and a few far pages the index must keep apart.
    constexpr Addr kChunk = Addr{1} << 18;
    const std::vector<Addr> edges = {0,          1,          62,
                                     63,         64,         65,
                                     127,        128,        129,
                                     191,        192,        193,
                                     kChunk - 1, kChunk,     kChunk + 1,
                                     3 * kChunk - 1, 3 * kChunk};
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        util::Rng rng(seed);
        NextLineMonitor monitor;
        NextLineOracle oracle;
        Cycle now = 0;
        monitor.record(64, 0); // a record at cycle 0 is still a record
        oracle.record(64, 0);
        for (int step = 0; step < 4000; ++step) {
            Addr block;
            switch (rng.next_below(4)) {
              case 0:
                block = edges[rng.next_below(edges.size())];
                break;
              case 1:
                block = rng.next_below(512);
                break;
              case 2:
                block = (Addr{1} << 40) + rng.next_below(130);
                break;
              default:
                block = rng.next_below(1u << 20);
                break;
            }
            const std::uint64_t op = rng.next_below(100);
            if (op < 45) {
                now += rng.next_below(3); // repeated cycles included
                monitor.record(block, now);
                oracle.record(block, now);
            } else if (op < 95) {
                const Cycle open = now - std::min<Cycle>(now,
                                                         rng.next_below(40));
                const Cycles lead = rng.next_below(2) ? 0
                                                      : rng.next_below(20);
                ASSERT_EQ(monitor.covers(block, open, now, lead),
                          oracle.covers(block, open, now, lead))
                    << "seed " << seed << " step " << step << " block "
                    << block;
            } else if (op < 98) {
                const Cycles delta = rng.next_below(1000);
                monitor.warp(delta);
                oracle.warp(delta);
                now += delta;
            } else if (op < 99) {
                std::vector<std::uint64_t> got;
                std::vector<std::uint64_t> want;
                monitor.append_state(got, now);
                oracle.append_state(want, now);
                ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
            } else {
                monitor.reset();
                oracle.reset();
            }
            ASSERT_EQ(monitor.covered(), oracle.covered());
        }
        std::vector<std::uint64_t> got;
        std::vector<std::uint64_t> want;
        monitor.append_state(got, now);
        oracle.append_state(want, now);
        EXPECT_EQ(got, want) << "seed " << seed;
    }
}

// ------------------------------------------------- prefetchability (Fig 9)

TEST(Prefetchability, BucketsAndHeadlineFractions)
{
    using interval::Interval;
    using interval::IntervalKind;
    using interval::PrefetchClass;

    auto set = interval::IntervalHistogramSet::with_default_edges();
    auto add = [&set](Cycles len, PrefetchClass pf) {
        Interval iv;
        iv.kind = IntervalKind::Inner;
        iv.length = len;
        iv.pf = pf;
        set.add(iv);
    };
    // Short bucket (always non-prefetchable, even if flagged).
    add(3, PrefetchClass::NextLine);
    add(6, PrefetchClass::NonPrefetchable);
    // Drowsy bucket.
    add(500, PrefetchClass::NextLine);
    add(900, PrefetchClass::NonPrefetchable);
    // Sleep bucket.
    add(5000, PrefetchClass::Stride);
    add(50'000, PrefetchClass::NextLine);
    add(70'000, PrefetchClass::NonPrefetchable);
    // Non-inner intervals are ignored entirely.
    Interval trail;
    trail.kind = IntervalKind::Trailing;
    trail.length = 1'000'000;
    set.add(trail);

    const auto points = core::compute_inflection(
        power::node_params(power::TechNode::Nm70));
    const PrefetchabilityReport r = analyze_prefetchability(set, points);

    EXPECT_EQ(r.short_bucket.total(), 2u);
    EXPECT_EQ(r.short_bucket.next_line, 0u); // reclassified as NP
    EXPECT_EQ(r.drowsy_bucket.next_line, 1u);
    EXPECT_EQ(r.drowsy_bucket.non_prefetchable, 1u);
    EXPECT_EQ(r.sleep_bucket.stride, 1u);
    EXPECT_EQ(r.sleep_bucket.next_line, 1u);
    EXPECT_EQ(r.sleep_bucket.non_prefetchable, 1u);

    // Fractions over all 7 inner intervals.
    EXPECT_NEAR(r.next_line_fraction, 2.0 / 7.0, 1e-12);
    EXPECT_NEAR(r.stride_fraction, 1.0 / 7.0, 1e-12);
    EXPECT_NEAR(r.total_fraction, 3.0 / 7.0, 1e-12);
}

TEST(Prefetchability, EmptySetYieldsZeros)
{
    auto set = interval::IntervalHistogramSet::with_default_edges();
    const auto points = core::compute_inflection(
        power::node_params(power::TechNode::Nm70));
    const PrefetchabilityReport r = analyze_prefetchability(set, points);
    EXPECT_EQ(r.total_fraction, 0.0);
    EXPECT_EQ(r.short_bucket.total(), 0u);
}
