/**
 * @file
 * The differential oracle for sim::Cache.
 *
 * ReferenceCache is the same set-associative model with every
 * replacement decision made by the virtual sim::ReplacementPolicy
 * objects (sim::make_replacement) instead of the cache's packed
 * rank-word kernel.  Geometry, frame numbering, statistics and
 * append_state() bytes follow sim::Cache exactly, so one address
 * stream driven through both must agree access by access.
 */

#ifndef LEAKBOUND_TESTS_REFERENCE_CACHE_HPP
#define LEAKBOUND_TESTS_REFERENCE_CACHE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache.hpp"
#include "sim/replacement.hpp"
#include "util/logging.hpp"

namespace leakbound::oracle {

class ReferenceCache
{
  public:
    /** @param seed for Random replacement, as sim::Cache takes it. */
    ReferenceCache(const sim::CacheConfig &config, std::uint64_t seed)
        : config_(config), tags_(config.num_frames(), kInvalidAddr),
          valid_(config.num_frames(), 0),
          repl_(sim::make_replacement(config.replacement,
                                      config.num_sets(),
                                      config.associativity, seed))
    {
    }

    /** Access byte address @p addr: hit or allocate. */
    sim::AccessResult
    access(Addr addr)
    {
        const std::uint32_t ways = config_.associativity;
        const Addr block = config_.block_of(addr);
        const std::uint64_t set = config_.set_of_block(block);
        const std::uint64_t base = set * ways;

        ++stats_.accesses;

        sim::AccessResult result;
        // One pass over the set: find the resident block and remember
        // the first invalid way for the miss path.
        std::uint32_t invalid_way = ways; // sentinel
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!valid_[base + w]) {
                if (invalid_way == ways)
                    invalid_way = w;
                continue;
            }
            if (tags_[base + w] == block) {
                repl_->on_hit(set, w);
                ++stats_.hits;
                result.hit = true;
                result.frame = static_cast<FrameId>(base + w);
                return result;
            }
        }

        // Miss path: prefer the invalid way found above; otherwise ask
        // the policy for a victim, which must name a valid resident way.
        ++stats_.misses;
        std::uint32_t way = invalid_way;
        if (way == ways) {
            way = repl_->victim_way(set);
            LEAKBOUND_ASSERT(way < ways, "replacement returned bad way ",
                             way);
            LEAKBOUND_ASSERT(valid_[base + way],
                             "replacement evicted invalid way ", way,
                             " of set ", set);
            result.evicted = true;
            result.victim_block = tags_[base + way];
            ++stats_.evictions;
        }

        tags_[base + way] = block;
        valid_[base + way] = 1;
        repl_->on_fill(set, way);
        result.frame = static_cast<FrameId>(base + way);
        return result;
    }

    /** Statistics so far. */
    const sim::CacheStats &stats() const { return stats_; }

    /** sim::Cache::append_state's bytes, from the policy objects. */
    bool
    append_state(std::vector<std::uint64_t> &out) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i)
            out.push_back(valid_[i] ? tags_[i] : kInvalidAddr);
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            word = (word << 1) | (valid_[i] ? 1 : 0);
            if ((i & 63) == 63) {
                out.push_back(word);
                word = 0;
            }
        }
        if (valid_.size() & 63)
            out.push_back(word);
        return repl_->append_state(out);
    }

  private:
    sim::CacheConfig config_;
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> valid_;
    std::unique_ptr<sim::ReplacementPolicy> repl_;
    sim::CacheStats stats_;
};

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_REFERENCE_CACHE_HPP
