/**
 * @file
 * Implementation of offline Belady-MIN simulation.
 */

#include "sim/belady.hpp"

#include <limits>

#include "util/flat_map.hpp"
#include "util/logging.hpp"

namespace leakbound::sim {

namespace {

constexpr std::uint64_t kNeverUsed =
    std::numeric_limits<std::uint64_t>::max();

} // namespace

BeladyResult
simulate_belady(const CacheConfig &config,
                const std::vector<Addr> &addresses)
{
    if (util::Status s = config.validate(); !s.ok())
        throw util::StatusError(std::move(s));
    const std::size_t n = addresses.size();

    // Backward pass: next_use[i] = index of the next access to the
    // same block after i (kNeverUsed if none).
    std::vector<std::uint64_t> next_use(n, kNeverUsed);
    {
        util::FlatMap last_seen(1 << 16);
        for (std::size_t i = n; i-- > 0;) {
            const Addr block = config.block_of(addresses[i]);
            next_use[i] = last_seen.get_or(block, kNeverUsed);
            last_seen.put(block, i);
        }
    }

    // Forward pass: per-set resident (block, next_use) arrays.
    const std::uint64_t sets = config.num_sets();
    const std::uint32_t ways = config.associativity;
    struct Frame
    {
        Addr block = kInvalidAddr;
        std::uint64_t next = kNeverUsed;
        bool valid = false;
    };
    std::vector<Frame> frames(sets * ways);

    BeladyResult result;
    result.hits.resize(n, false);
    for (std::size_t i = 0; i < n; ++i) {
        const Addr block = config.block_of(addresses[i]);
        const std::uint64_t set = config.set_of_block(block);
        const std::uint64_t base = set * ways;
        ++result.stats.accesses;

        // Hit path.
        bool hit = false;
        for (std::uint32_t w = 0; w < ways && !hit; ++w) {
            Frame &f = frames[base + w];
            if (f.valid && f.block == block) {
                f.next = next_use[i];
                ++result.stats.hits;
                result.hits[i] = true;
                hit = true;
            }
        }
        if (hit)
            continue;

        // Miss: prefer an invalid way; otherwise evict the block whose
        // next use is farthest in the future (MIN).
        ++result.stats.misses;
        std::uint32_t victim = ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!frames[base + w].valid) {
                victim = w;
                break;
            }
        }
        if (victim == ways) {
            std::uint64_t farthest = 0;
            victim = 0;
            for (std::uint32_t w = 0; w < ways; ++w) {
                if (frames[base + w].next >= farthest) {
                    farthest = frames[base + w].next;
                    victim = w;
                }
            }
            ++result.stats.evictions;
        }
        Frame &f = frames[base + victim];
        // A block never used again is not worth caching, but MIN still
        // fills it (allocate-on-miss, matching the online model).
        f.valid = true;
        f.block = block;
        f.next = next_use[i];
    }
    return result;
}

} // namespace leakbound::sim
