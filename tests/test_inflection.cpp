/**
 * @file
 * Tests of the inflection point solver — the paper's Table 1 is
 * reproduced EXACTLY here, plus structural properties (Lemma 1,
 * monotonicity in CD, degenerate parameterizations).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/inflection.hpp"
#include "power/technology.hpp"

using namespace leakbound;
using namespace leakbound::core;

namespace {

struct Table1Row
{
    power::TechNode node;
    Cycles active_drowsy;
    Cycles drowsy_sleep;
};

// Without a printer gtest dumps the raw bytes, padding included, and
// the uninitialized padding leaks into the ctest-discovered test names.
void
PrintTo(const Table1Row &row, std::ostream *os)
{
    *os << power::node_name(row.node) << " a=" << row.active_drowsy
        << " b=" << row.drowsy_sleep;
}

} // namespace

/** Paper Table 1, verbatim. */
class Table1 : public ::testing::TestWithParam<Table1Row>
{
};

TEST_P(Table1, MatchesPaperExactly)
{
    const Table1Row row = GetParam();
    const InflectionPoints points =
        compute_inflection(power::node_params(row.node));
    EXPECT_EQ(points.active_drowsy, row.active_drowsy);
    EXPECT_EQ(points.drowsy_sleep, row.drowsy_sleep);
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, Table1,
    ::testing::Values(Table1Row{power::TechNode::Nm70, 6, 1057},
                      Table1Row{power::TechNode::Nm100, 6, 5088},
                      Table1Row{power::TechNode::Nm130, 6, 10328},
                      Table1Row{power::TechNode::Nm180, 6, 103084}),
    [](const ::testing::TestParamInfo<Table1Row> &info) {
        const std::string n = power::node_params(info.param.node).name;
        return "Nm" + n.substr(0, n.size() - 2);
    });

TEST(Inflection, Lemma1HoldsOnAllNodes)
{
    // Appendix Lemma 1: a < b for every technology.
    for (power::TechNode node : power::all_nodes()) {
        const auto points = compute_inflection(power::node_params(node));
        EXPECT_LT(points.active_drowsy, points.drowsy_sleep)
            << power::node_name(node);
    }
}

TEST(Inflection, BShrinksAsTechnologyScalesDown)
{
    // Table 1's headline trend: smaller feature -> smaller b.
    Cycles prev = 0;
    for (power::TechNode node :
         {power::TechNode::Nm70, power::TechNode::Nm100,
          power::TechNode::Nm130, power::TechNode::Nm180}) {
        const auto points = compute_inflection(power::node_params(node));
        EXPECT_GT(points.drowsy_sleep, prev);
        prev = points.drowsy_sleep;
    }
}

TEST(Inflection, BGrowsLinearlyWithRefetchEnergy)
{
    // From Eq. 3: b = (K_S + CD - K_D)/(P_D - P_S); with P_D = 1/3 and
    // P_S = 0, db/dCD = 3.
    power::TechnologyParams tech =
        power::node_params(power::TechNode::Nm70);
    const double b0 =
        compute_inflection(tech).drowsy_sleep_exact;
    tech.refetch_energy += 100.0;
    const double b1 = compute_inflection(tech).drowsy_sleep_exact;
    EXPECT_NEAR(b1 - b0, 300.0, 1e-6);
}

TEST(Inflection, BShrinksWithDeeperDrowsy)
{
    // A leakier drowsy mode (higher P_D) makes sleep attractive
    // earlier.
    power::TechnologyParams tech =
        power::node_params(power::TechNode::Nm70);
    tech.drowsy_power = 0.5;
    const double leaky = compute_inflection(tech).drowsy_sleep_exact;
    tech.drowsy_power = 0.2;
    const double tight = compute_inflection(tech).drowsy_sleep_exact;
    EXPECT_LT(leaky, tight);
}

TEST(Inflection, InfiniteWhenSleepCannotWin)
{
    // P_S == P_D: sleep never recovers its overhead against drowsy.
    power::TechnologyParams tech =
        power::node_params(power::TechNode::Nm70);
    tech.sleep_power = tech.drowsy_power = 0.25;
    const auto points = compute_inflection(tech);
    EXPECT_EQ(points.drowsy_sleep, std::numeric_limits<Cycles>::max());
    EXPECT_TRUE(std::isinf(points.drowsy_sleep_exact));
}

TEST(Inflection, ActiveDrowsyPointIsTransitionSum)
{
    power::TechnologyParams tech =
        power::node_params(power::TechNode::Nm70);
    tech.timings.d1 = 5;
    tech.timings.d3 = 9;
    EXPECT_EQ(compute_inflection(tech).active_drowsy, 14u);
}

TEST(Inflection, RespondsToL2Latency)
{
    // Larger D -> larger s4 -> larger K_S -> larger b (Parikh et al.'s
    // L2-latency effect, reproduced by bench/ablation_l2_latency).
    power::TechnologyParams tech =
        power::node_params(power::TechNode::Nm70);
    const double b_fast = compute_inflection(tech).drowsy_sleep_exact;
    tech.timings = power::ModeTimings::with_l2_latency(30);
    const double b_slow = compute_inflection(tech).drowsy_sleep_exact;
    EXPECT_GT(b_slow, b_fast);
}
