/**
 * @file
 * Parameterized cache-geometry sweep: the cache model must behave
 * correctly for every (size, line, associativity) combination a user
 * might configure — residency uniqueness, capacity limits, stats
 * conservation, and frame-id bijectivity.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/cache.hpp"
#include "util/random.hpp"

using namespace leakbound;
using namespace leakbound::sim;

namespace {

struct Geometry
{
    std::uint64_t size;
    std::uint32_t line;
    std::uint32_t assoc;
};

std::string
geometry_name(const ::testing::TestParamInfo<Geometry> &info)
{
    return "s" + std::to_string(info.param.size) + "_l" +
           std::to_string(info.param.line) + "_w" +
           std::to_string(info.param.assoc);
}

} // namespace

class CacheGeometry : public ::testing::TestWithParam<Geometry>
{
  protected:
    CacheConfig
    config() const
    {
        CacheConfig c;
        c.name = "sweep";
        c.size_bytes = GetParam().size;
        c.line_bytes = GetParam().line;
        c.associativity = GetParam().assoc;
        return c;
    }
};

TEST_P(CacheGeometry, GeometryArithmetic)
{
    const CacheConfig c = config();
    ASSERT_TRUE(c.validate().ok());
    EXPECT_EQ(c.num_sets() * c.associativity * c.line_bytes,
              c.size_bytes);
    EXPECT_EQ(c.num_frames(), c.num_sets() * c.associativity);
}

TEST_P(CacheGeometry, WorkingSetWithinCapacityNeverEvicts)
{
    // Touch exactly one block per frame (each set filled to its ways):
    // everything must fit, and a second pass must be all hits.
    const CacheConfig cfg = config();
    Cache cache(cfg);
    std::vector<Addr> blocks;
    for (std::uint64_t set = 0; set < cfg.num_sets(); ++set) {
        for (std::uint32_t w = 0; w < cfg.associativity; ++w) {
            // Distinct blocks mapping to `set`: block = set + k*sets.
            blocks.push_back((set + static_cast<Addr>(w) * cfg.num_sets()) *
                             cfg.line_bytes);
        }
    }
    for (Addr a : blocks)
        cache.access(a);
    EXPECT_EQ(cache.stats().evictions, 0u);
    for (Addr a : blocks)
        EXPECT_TRUE(cache.access(a).hit);
    EXPECT_EQ(cache.stats().hits, blocks.size());
}

TEST_P(CacheGeometry, FrameIdsAreUniqueAndInRange)
{
    const CacheConfig cfg = config();
    Cache cache(cfg);
    std::set<FrameId> seen;
    for (std::uint64_t set = 0; set < cfg.num_sets(); ++set) {
        for (std::uint32_t w = 0; w < cfg.associativity; ++w) {
            const Addr a =
                (set + static_cast<Addr>(w) * cfg.num_sets()) *
                cfg.line_bytes;
            const AccessResult r = cache.access(a);
            EXPECT_LT(r.frame, cfg.num_frames());
            EXPECT_TRUE(seen.insert(r.frame).second)
                << "frame reused while capacity remains";
        }
    }
    EXPECT_EQ(seen.size(), cfg.num_frames());
}

TEST_P(CacheGeometry, StatsConservation)
{
    const CacheConfig cfg = config();
    Cache cache(cfg);
    util::Rng rng(9);
    const std::uint64_t accesses = 20'000;
    for (std::uint64_t i = 0; i < accesses; ++i)
        cache.access(rng.next_below(4 * cfg.size_bytes));
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.accesses, accesses);
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_LE(s.evictions, s.misses);
    // Evictions = misses - cold fills; cold fills <= frames.
    EXPECT_GE(s.evictions + cfg.num_frames(), s.misses);
}

TEST_P(CacheGeometry, ResidencyIsExclusive)
{
    // A block is resident in at most one frame at any time.
    const CacheConfig cfg = config();
    Cache cache(cfg);
    util::Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
        const Addr block = rng.next_below(2 * cfg.num_frames());
        cache.access(block * cfg.line_bytes);
        const FrameId frame = cache.frame_of_block(block);
        ASSERT_NE(frame, kInvalidFrame);
        EXPECT_EQ(cache.block_in_frame(frame), block);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Values(Geometry{1024, 32, 1}, Geometry{1024, 32, 2},
                      Geometry{4096, 64, 4}, Geometry{8192, 64, 8},
                      Geometry{65536, 64, 2}, Geometry{65536, 128, 2},
                      Geometry{2097152, 64, 1}, Geometry{1024, 64, 16}),
    geometry_name);
