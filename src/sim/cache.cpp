/**
 * @file
 * Implementation of the set-associative cache model: construction,
 * the reference (virtual-policy) access path, and state snapshots.
 * The kernel access path lives in cache.hpp so it inlines into the
 * simulation loop.
 */

#include "sim/cache.hpp"

#include "util/logging.hpp"

namespace leakbound::sim {

namespace {

/** Widest associativity one 64-bit rank word can pack (4-bit ranks). */
constexpr std::uint32_t kMaxKernelWays = 16;

} // namespace

Cache::Cache(const CacheConfig &config, std::uint64_t seed, SimMode mode)
    : config_(config), kernel_rng_(seed), seed_(seed)
{
    config_.validate();
    ways_ = config_.associativity;
    line_shift_ = config_.line_shift();
    set_mask_ = config_.set_mask();
    tags_.assign(config_.num_frames(), kInvalidAddr);
    valid_.assign(config_.num_frames(), 0);
    repl_ = make_replacement(config_.replacement, config_.num_sets(),
                             config_.associativity, seed_);
    kernel_ = mode == SimMode::Kernel && ways_ <= kMaxKernelWays;
    if (kernel_)
        rank_.assign(config_.num_sets(), initial_rank(ways_));
}

AccessResult
Cache::access_reference(Addr addr)
{
    const Addr block = addr >> line_shift_;
    const std::uint64_t set = block & set_mask_;
    const std::uint64_t base = set * ways_;

    ++stats_.accesses;

    AccessResult result;
    // One pass over the set: find the resident block and remember the
    // first invalid way for the miss path.
    std::uint32_t invalid_way = ways_; // sentinel
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!valid_[base + w]) {
            if (invalid_way == ways_)
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

    // Miss path: prefer the invalid way found above; otherwise ask the
    // policy for a victim, which must name a valid resident way.
    ++stats_.misses;
    std::uint32_t way = invalid_way;
    if (way == ways_) {
        way = repl_->victim_way(set);
        LEAKBOUND_ASSERT(way < ways_, "replacement returned bad way ", way);
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
    if (kernel_) {
        // The rank word *is* the canonical recency permutation: nibble p
        // holds the way at rank p, exactly the sequence the reference
        // policies' append_rank_state emits (stamps sorted ascending,
        // ties toward the lower way).
        if (config_.replacement == ReplacementKind::Random)
            return false;
        for (const std::uint64_t r : rank_)
            for (std::uint32_t p = 0; p < ways_; ++p)
                out.push_back((r >> (4 * p)) & 0xf);
        return true;
    }
    return repl_->append_state(out);
}

void
Cache::reset()
{
    tags_.assign(tags_.size(), kInvalidAddr);
    valid_.assign(valid_.size(), 0);
    stats_ = CacheStats{};
    repl_ = make_replacement(config_.replacement, config_.num_sets(),
                             config_.associativity, seed_);
    kernel_rng_ = util::Rng(seed_);
    last_block_ = kInvalidAddr;
    last_frame_ = kInvalidFrame;
    if (kernel_)
        rank_.assign(rank_.size(), initial_rank(ways_));
}

} // namespace leakbound::sim
