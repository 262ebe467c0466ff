/**
 * @file
 * Set-associative cache model (block-granular, tag-only).
 *
 * The model tracks residency, replacement and statistics; data values
 * are irrelevant to the leakage study.  Frames are identified by
 * FrameId = set * ways + way, the identifier the interval machinery
 * keys on (leakage is a property of the physical frame, not of the
 * block resident in it).
 *
 * Two implementations of the per-access decision logic coexist (see
 * SimMode in cache_config.hpp): the devirtualized *kernel*, which
 * packs a set's recency order (up to 16 ways, one nibble per rank)
 * into one 64-bit rank word and inlines
 * the replacement update per ReplacementKind, and the *reference*
 * path, which drives the virtual ReplacementPolicy objects.  They are
 * byte-identical in every observable; debug builds additionally run
 * the policy objects in lockstep with the kernel and assert agreement
 * on every victim.
 */

#ifndef LEAKBOUND_SIM_CACHE_HPP
#define LEAKBOUND_SIM_CACHE_HPP

#include <bit>
#include <memory>
#include <vector>

#include "sim/cache_config.hpp"
#include "sim/replacement.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace leakbound::sim {

/** Outcome of one cache access. */
struct AccessResult
{
    bool hit = false;          ///< block was resident
    FrameId frame = kInvalidFrame; ///< frame accessed (or filled)
    bool evicted = false;      ///< a valid block was displaced
    Addr victim_block = kInvalidAddr; ///< displaced block number
};

/** Running cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /** misses / accesses (0 when idle). */
    double miss_rate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * One cache level.  Accesses are by byte address; allocate-on-miss,
 * no inclusion/exclusion enforcement (the hierarchy composes levels).
 */
class Cache
{
  public:
    /**
     * @param config validated geometry; @param seed for Random repl.
     * @param mode kernel vs reference decision logic (byte-identical;
     *        geometries the kernel cannot pack — more than 16 ways —
     *        silently run the reference logic).
     */
    explicit Cache(const CacheConfig &config, std::uint64_t seed = 1,
                   SimMode mode = SimMode::Kernel);

    /** Access byte address @p addr: hit or allocate. */
    AccessResult
    access(Addr addr)
    {
        if (!kernel_)
            return access_reference(addr);
        switch (config_.replacement) {
          case ReplacementKind::Lru:
            return access_kernel<ReplacementKind::Lru>(addr);
          case ReplacementKind::Fifo:
            return access_kernel<ReplacementKind::Fifo>(addr);
          case ReplacementKind::Random:
            return access_kernel<ReplacementKind::Random>(addr);
        }
        LEAKBOUND_PANIC("unreachable: bad ReplacementKind");
    }

    /**
     * Frame currently holding @p block (a block number, not a byte
     * address); kInvalidFrame when not resident.
     */
    FrameId
    frame_of_block(Addr block) const
    {
        const std::uint64_t base = (block & set_mask_) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            // Tag first: an invalid frame's tag is kInvalidAddr, so a
            // probe that misses (most snoops) never reads validity.
            if (tags_[base + w] == block && valid_[base + w])
                return static_cast<FrameId>(base + w);
        }
        return kInvalidFrame;
    }

    /** Block number resident in @p frame; kInvalidAddr when invalid. */
    Addr block_in_frame(FrameId frame) const;

    /**
     * Invalidate the copy of @p block (a block number, not a byte
     * address) held by this cache — the coherence action another
     * requester's store triggers by snooping.  Returns the
     * frame that held the block, or kInvalidFrame when it was not
     * resident.  Replacement state is deliberately left untouched:
     * both decision paths prefer an invalid way over a policy victim,
     * so the kernel rank word and the reference policy objects stay in
     * lockstep without a policy-level invalidate hook.  Statistics are
     * untouched too — an invalidation is not an access by this cache's
     * requester.
     */
    FrameId
    invalidate_block(Addr block)
    {
        const FrameId frame = frame_of_block(block);
        if (frame == kInvalidFrame)
            return kInvalidFrame;
        valid_[frame] = 0;
        tags_[frame] = kInvalidAddr;
        // The same-block filter must forget an invalidated block, or
        // the next access to it would short-circuit into a phantom hit
        // on a frame that no longer holds it.
        if (block == last_block_) {
            last_block_ = kInvalidAddr;
            last_frame_ = kInvalidFrame;
        }
        return frame;
    }

    /** Geometry. */
    const CacheConfig &config() const { return config_; }

    /** Physical frame count. */
    std::uint64_t num_frames() const { return config_.num_frames(); }

    /** Statistics so far. */
    const CacheStats &stats() const { return stats_; }

    /** Whether the devirtualized kernel is active for this instance. */
    bool kernel_active() const { return kernel_; }

    /** Invalidate everything and clear statistics. */
    void reset();

    /**
     * Append the cache's decision state (resident tags, validity, and
     * the replacement policy's canonical recency order) to @p out;
     * @return false when the replacement policy is not snapshot-able
     * (Random).  Statistics are excluded — they never influence future
     * behaviour.  Kernel and reference instances append identical
     * bytes for identical histories.
     */
    bool append_state(std::vector<std::uint64_t> &out) const;

  private:
    /** The virtual-policy decision logic (reference/oracle path). */
    AccessResult access_reference(Addr addr);

    /**
     * Recency rank word of one set: nibble p holds the way at recency
     * position p (position 0 = next victim, position ways-1 = MRU);
     * nibbles at and above `ways` hold the 0xF filler, which can never
     * equal a way index (a full 16-way word has no filler).  The
     * initial ascending order 0,1,...,ways-1 matches the reference
     * tie-break (untouched ways all carry stamp 0 and sort ascending
     * by way).
     */
    static std::uint64_t
    initial_rank(std::uint32_t ways)
    {
        std::uint64_t word = ~std::uint64_t{0};
        for (std::uint32_t w = ways; w-- > 0;)
            word = (word << 4) | w;
        return word;
    }

    /**
     * Move @p way to the MRU position of rank word @p r (@p mru =
     * ways - 1), sliding the ways above its current position down one
     * rank.  The way's position is found with the zero-nibble trick:
     * the lowest flagged nibble of `(x - 0x11..) & ~x & 0x88..` is
     * exactly the lowest zero nibble of x (false positives only occur
     * above it), and every way index appears in the word exactly once.
     */
    static std::uint64_t
    touch_rank(std::uint64_t r, std::uint32_t way, std::uint32_t mru)
    {
        constexpr std::uint64_t kOnes = 0x1111111111111111ULL;
        const std::uint64_t x = r ^ (kOnes * way);
        const std::uint64_t z =
            (x - kOnes) & ~x & 0x8888888888888888ULL;
        const unsigned p = static_cast<unsigned>(std::countr_zero(z)) >> 2;
        if (p >= mru)
            return r; // already MRU (also the whole ways == 1 case)
        // mru <= 15, p <= mru - 1 <= 14: all shifts below stay < 64.
        const std::uint64_t below = (std::uint64_t{1} << (4 * p)) - 1;
        const std::uint64_t upto_mru =
            (std::uint64_t{1} << (4 * mru)) - 1;
        return (r & below)                       // ranks below p
               | ((r >> 4) & (upto_mru & ~below)) // old p+1..mru slide down
               | (static_cast<std::uint64_t>(way) << (4 * mru))
               | (r & ((~std::uint64_t{0} << (4 * mru)) << 4)); // filler
    }

    /** The devirtualized decision logic, specialized per policy. */
    template <ReplacementKind K>
    AccessResult
    access_kernel(Addr addr)
    {
        const Addr block = addr >> line_shift_;

        // Same-block filter: after any access the accessed block is
        // resident and MRU in its set, and nothing touches this cache
        // between two of its own accesses, so a repeat of the previous
        // block is a guaranteed hit to the same frame.  Every policy's
        // hit path leaves the state exactly as the filter does: LRU's
        // touch_rank is a no-op on an already-MRU way, FIFO and Random
        // do nothing on hits.  Fetch groups walk an I-line 4 groups at
        // a time and unit-stride data walks a D-line 8 draws at a time,
        // so this skips most set scans.
        if (block == last_block_) {
            ++stats_.accesses;
            ++stats_.hits;
#ifndef NDEBUG
            repl_->on_hit(
                static_cast<std::uint64_t>(last_frame_) / ways_,
                static_cast<std::uint32_t>(
                    static_cast<std::uint64_t>(last_frame_) % ways_));
#endif
            AccessResult repeat;
            repeat.hit = true;
            repeat.frame = last_frame_;
            return repeat;
        }

        const std::uint64_t set = block & set_mask_;
        const std::uint64_t base = set * ways_;

        ++stats_.accesses;

        AccessResult result;
        std::uint32_t invalid_way = ways_; // sentinel
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!valid_[base + w]) {
                if (invalid_way == ways_)
                    invalid_way = w;
                continue;
            }
            if (tags_[base + w] == block) {
                if constexpr (K == ReplacementKind::Lru)
                    rank_[set] = touch_rank(rank_[set], w, ways_ - 1);
#ifndef NDEBUG
                repl_->on_hit(set, w); // shadow the oracle in lockstep
#endif
                ++stats_.hits;
                result.hit = true;
                result.frame = static_cast<FrameId>(base + w);
                last_block_ = block;
                last_frame_ = result.frame;
                return result;
            }
        }

        ++stats_.misses;
        std::uint32_t way = invalid_way;
        if (way == ways_) {
            if constexpr (K == ReplacementKind::Random)
                way = static_cast<std::uint32_t>(
                    kernel_rng_.next_below(ways_));
            else
                way = static_cast<std::uint32_t>(rank_[set] & 0xf);
#ifndef NDEBUG
            LEAKBOUND_ASSERT(repl_->victim_way(set) == way,
                             "kernel victim diverged from the reference "
                             "policy in set ", set);
            LEAKBOUND_ASSERT(way < ways_ && valid_[base + way],
                             "kernel picked an invalid victim way ", way);
#endif
            result.evicted = true;
            result.victim_block = tags_[base + way];
            ++stats_.evictions;
        }

        tags_[base + way] = block;
        valid_[base + way] = 1;
        if constexpr (K != ReplacementKind::Random)
            rank_[set] = touch_rank(rank_[set], way, ways_ - 1);
#ifndef NDEBUG
        repl_->on_fill(set, way); // shadow the oracle in lockstep
#endif
        result.frame = static_cast<FrameId>(base + way);
        last_block_ = block;
        last_frame_ = result.frame;
        return result;
    }

    CacheConfig config_;
    // Geometry precomputed once at construction (all geometries are
    // validated powers of two): block = addr >> line_shift_,
    // set = block & set_mask_.
    std::uint32_t ways_ = 1;
    std::uint32_t line_shift_ = 0;
    std::uint64_t set_mask_ = 0;
    // Frame state stored structure-of-arrays: the hit scan touches only
    // the tag array, laid out contiguously per set.
    std::vector<Addr> tags_;          ///< resident block number per frame
    std::vector<std::uint8_t> valid_; ///< validity per frame
    /**
     * The reference policy objects.  In Reference mode (or for
     * geometries the kernel cannot pack) they make every decision; in
     * kernel mode they are the debug-build shadow oracle and are never
     * consulted in release builds.
     */
    std::unique_ptr<ReplacementPolicy> repl_;
    bool kernel_ = false;            ///< kernel decision logic active
    std::vector<std::uint64_t> rank_; ///< per-set rank word (kernel)
    // Same-block filter (kernel path): the previously accessed block
    // and its frame.  Derived state — always the MRU of its set — so
    // it is excluded from append_state() and cleared by reset().
    Addr last_block_ = kInvalidAddr;
    FrameId last_frame_ = kInvalidFrame;
    util::Rng kernel_rng_;           ///< kernel Random draws (lockstep
                                     ///< with RandomPolicy's stream)
    CacheStats stats_;
    std::uint64_t seed_;
};

} // namespace leakbound::sim

#endif // LEAKBOUND_SIM_CACHE_HPP
