/**
 * @file
 * Implementation of the set-associative cache model: construction,
 * reset and state snapshots.  The access path lives in cache.hpp so
 * it inlines into the simulation loop.
 */

#include "sim/cache.hpp"

#include "util/logging.hpp"

namespace leakbound::sim {

Cache::Cache(const CacheConfig &config, std::uint64_t seed)
    : config_(config), rng_(seed), seed_(seed)
{
    if (util::Status s = config_.validate(); !s.ok())
        throw util::StatusError(std::move(s));
    ways_ = config_.associativity;
    line_shift_ = config_.line_shift();
    set_mask_ = config_.set_mask();
    tags_.assign(config_.num_frames(), kInvalidAddr);
    valid_.assign(config_.num_frames(), 0);
    repl_ = make_replacement(config_.replacement, config_.num_sets(),
                             config_.associativity, seed_);
    rank_.assign(config_.num_sets(), initial_rank(ways_));
}

Addr
Cache::block_in_frame(FrameId frame) const
{
    LEAKBOUND_ASSERT(frame < tags_.size(), "frame id out of range");
    return valid_[frame] ? tags_[frame] : kInvalidAddr;
}

bool
Cache::append_state(std::vector<std::uint64_t> &out) const
{
    for (std::size_t i = 0; i < tags_.size(); ++i)
        out.push_back(valid_[i] ? tags_[i] : kInvalidAddr);
    // Validity packed separately: an invalid frame and a resident
    // kInvalidAddr tag must not compare equal (the latter cannot occur
    // with real addresses, but keep the snapshot self-contained).
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
    // The rank word *is* the canonical recency permutation: nibble p
    // holds the way at rank p, exactly the sequence the policy objects'
    // append_rank_state emits (stamps sorted ascending, ties toward the
    // lower way).
    if (config_.replacement == ReplacementKind::Random)
        return false;
    for (const std::uint64_t r : rank_)
        for (std::uint32_t p = 0; p < ways_; ++p)
            out.push_back((r >> (4 * p)) & 0xf);
    return true;
}

void
Cache::reset()
{
    tags_.assign(tags_.size(), kInvalidAddr);
    valid_.assign(valid_.size(), 0);
    stats_ = CacheStats{};
    repl_ = make_replacement(config_.replacement, config_.num_sets(),
                             config_.associativity, seed_);
    rng_ = util::Rng(seed_);
    last_block_ = kInvalidAddr;
    last_frame_ = kInvalidFrame;
    rank_.assign(rank_.size(), initial_rank(ways_));
}

} // namespace leakbound::sim
