/**
 * @file
 * Tests of the cache model: geometry math, hit/miss/eviction
 * behaviour, frame identity, LRU/FIFO/Random replacement semantics,
 * the hierarchy's latency composition, and config validation.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/cache.hpp"
#include "sim/hierarchy.hpp"

using namespace leakbound;
using namespace leakbound::sim;

namespace {

/** A tiny 2-set, 2-way cache with 64B lines (256B total). */
CacheConfig
tiny()
{
    CacheConfig c;
    c.name = "tiny";
    c.size_bytes = 256;
    c.line_bytes = 64;
    c.associativity = 2;
    c.hit_latency = 1;
    return c;
}

} // namespace

TEST(CacheConfig, GeometryMath)
{
    const CacheConfig l1i = CacheConfig::alpha_l1i();
    EXPECT_EQ(l1i.num_sets(), 512u);
    EXPECT_EQ(l1i.num_frames(), 1024u);
    EXPECT_EQ(l1i.block_of(0x1234), 0x1234u / 64);
    const CacheConfig l2 = CacheConfig::alpha_l2();
    EXPECT_EQ(l2.num_sets(), 32768u);
    EXPECT_EQ(l2.associativity, 1u);
}

namespace {

/** Asserts @p status is an InvalidArgument whose message names @p what. */
void
expect_invalid(const util::Status &status, const std::string &what)
{
    EXPECT_EQ(status.kind(), util::ErrorKind::InvalidArgument)
        << status.to_string();
    EXPECT_NE(status.message().find(what), std::string::npos)
        << status.to_string();
}

} // namespace

TEST(CacheConfig, ValidationCatchesBadGeometry)
{
    EXPECT_TRUE(tiny().validate().ok());
    CacheConfig c = tiny();
    c.line_bytes = 48; // not a power of two
    expect_invalid(c.validate(), "power of two");
    c = tiny();
    c.size_bytes = 300; // not divisible
    expect_invalid(c.validate(), "multiple");
    c = tiny();
    c.hit_latency = 0;
    expect_invalid(c.validate(), "latency");
    // The constructor surfaces the same status as an exception.
    EXPECT_THROW(Cache{c}, util::StatusError);
}

TEST(CacheConfig, RejectsMoreThanSixteenWays)
{
    CacheConfig c = tiny();
    c.associativity = kMaxAssociativity;
    c.size_bytes = 64ull * kMaxAssociativity; // one set
    EXPECT_TRUE(c.validate().ok());
    for (const std::uint32_t ways : {17u, 32u, 64u}) {
        c.associativity = ways;
        c.size_bytes = 64ull * ways; // one set: only the width is wrong
        expect_invalid(c.validate(), "associativity");
        EXPECT_THROW(Cache{c}, util::StatusError) << ways;
    }
}

TEST(Cache, ColdMissesThenHits)
{
    Cache c(tiny());
    const AccessResult first = c.access(0x0);
    EXPECT_FALSE(first.hit);
    EXPECT_FALSE(first.evicted);
    const AccessResult second = c.access(0x4); // same 64B line
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.frame, first.frame);
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SetMappingSeparatesBlocks)
{
    Cache c(tiny());
    // Blocks 0 and 1 map to different sets (2 sets, block index % 2).
    const auto a = c.access(0 * 64);
    const auto b = c.access(1 * 64);
    EXPECT_NE(a.frame / 2, b.frame / 2); // different sets
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tiny());
    // Set 0 holds even blocks; fill with blocks 0 and 2.
    c.access(0 * 64);
    c.access(2 * 64);
    // Touch block 0 so block 2 is LRU.
    c.access(0 * 64);
    // Block 4 must evict block 2.
    const AccessResult r = c.access(4 * 64);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim_block, 2u);
    // Block 0 still resident.
    EXPECT_TRUE(c.access(0 * 64).hit);
}

TEST(Cache, FifoIgnoresHits)
{
    CacheConfig cfg = tiny();
    cfg.replacement = ReplacementKind::Fifo;
    Cache c(cfg);
    c.access(0 * 64);
    c.access(2 * 64);
    c.access(0 * 64); // hit; FIFO must NOT refresh block 0
    const AccessResult r = c.access(4 * 64);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim_block, 0u); // oldest insertion
}

TEST(Cache, RandomIsDeterministicPerSeed)
{
    CacheConfig cfg = tiny();
    cfg.replacement = ReplacementKind::Random;
    Cache a(cfg, 42), b(cfg, 42);
    for (Addr blk = 0; blk < 64; blk += 2) {
        const auto ra = a.access(blk * 64);
        const auto rb = b.access(blk * 64);
        EXPECT_EQ(ra.frame, rb.frame);
        EXPECT_EQ(ra.victim_block, rb.victim_block);
    }
}

TEST(Cache, FrameOfBlockTracksResidency)
{
    Cache c(tiny());
    EXPECT_EQ(c.frame_of_block(0), kInvalidFrame);
    const auto r = c.access(0);
    EXPECT_EQ(c.frame_of_block(0), r.frame);
    EXPECT_EQ(c.block_in_frame(r.frame), 0u);
    // Evict block 0 out of set 0.
    c.access(2 * 64);
    c.access(4 * 64);
    c.access(6 * 64);
    EXPECT_EQ(c.frame_of_block(0), kInvalidFrame);
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(tiny());
    c.access(0);
    c.access(64);
    c.reset();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_EQ(c.frame_of_block(0), kInvalidFrame);
    EXPECT_FALSE(c.access(0).hit);
}

TEST(Cache, AllFramesUsableUnderConflict)
{
    // Fill one set completely; both ways must be used before any
    // eviction happens.
    Cache c(tiny());
    c.access(0 * 64);
    const auto r2 = c.access(2 * 64);
    EXPECT_FALSE(r2.evicted);
    EXPECT_EQ(c.stats().evictions, 0u);
    c.access(4 * 64);
    EXPECT_EQ(c.stats().evictions, 1u);
}

// ------------------------------------------------------------ hierarchy

TEST(Hierarchy, LatenciesComposeAcrossLevels)
{
    HierarchyConfig cfg; // paper defaults
    Hierarchy h(cfg);

    // Cold instruction fetch: L1I miss, L2 miss -> memory latency.
    const HierarchyResult cold = h.access_instr(0x400000);
    EXPECT_FALSE(cold.l1.hit);
    EXPECT_FALSE(cold.l2_hit);
    EXPECT_EQ(cold.latency, cfg.memory_latency);

    // Warm: L1I hit at its hit latency.
    const HierarchyResult warm = h.access_instr(0x400000);
    EXPECT_TRUE(warm.l1.hit);
    EXPECT_EQ(warm.latency, cfg.l1i.hit_latency);

    // Data access to the same line: L1D misses but L2 now hits.
    const HierarchyResult data = h.access_data(0x400000);
    EXPECT_FALSE(data.l1.hit);
    EXPECT_TRUE(data.l2_hit);
    EXPECT_EQ(data.latency, cfg.l2.hit_latency);

    const HierarchyResult data2 = h.access_data(0x400004);
    EXPECT_TRUE(data2.l1.hit);
    EXPECT_EQ(data2.latency, cfg.l1d.hit_latency);
}

TEST(Hierarchy, PaperLatenciesAreDefault)
{
    const HierarchyConfig cfg;
    EXPECT_EQ(cfg.l1i.hit_latency, 1u);
    EXPECT_EQ(cfg.l1d.hit_latency, 3u);
    EXPECT_EQ(cfg.l2.hit_latency, 7u);
    EXPECT_EQ(cfg.l1i.size_bytes, 64u * 1024);
    EXPECT_EQ(cfg.l1d.size_bytes, 64u * 1024);
    EXPECT_EQ(cfg.l2.size_bytes, 2u * 1024 * 1024);
}

TEST(Hierarchy, RejectsMemoryFasterThanL2)
{
    HierarchyConfig cfg;
    EXPECT_TRUE(cfg.validate().ok());
    cfg.memory_latency = 3;
    expect_invalid(cfg.validate(), "memory latency");
    EXPECT_THROW(Hierarchy{cfg}, util::StatusError);
}

TEST(Hierarchy, SplitL1SharedL2)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    h.access_instr(0x1000);
    // The same line is NOT in L1D (split), but IS in L2 (shared).
    const HierarchyResult d = h.access_data(0x1000);
    EXPECT_FALSE(d.l1.hit);
    EXPECT_TRUE(d.l2_hit);
    EXPECT_EQ(h.l2().stats().accesses, 2u);
}
