/**
 * @file
 * Next-line coverage monitor (paper Sections 5.1-5.2).
 *
 * Next-line prefetching fetches block B when block B-1 is touched.
 * The paper classifies an access interval as next-line prefetchable
 * when "one or more accesses to the previous cache line occurs"
 * within it: the prefetcher would then have re-fetched (or woken) the
 * line just in time for the closing access.
 *
 * The monitor records the last access time of every block; the
 * experiment glue asks, when an access to block B closes an interval
 * that opened at t0, whether B-1 was accessed after t0.
 */

#ifndef LEAKBOUND_PREFETCH_NEXT_LINE_HPP
#define LEAKBOUND_PREFETCH_NEXT_LINE_HPP

#include <vector>

#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace leakbound::prefetch {

/**
 * Tracks per-block last access times for next-line coverage tests.
 *
 * Storage is paged: each 64-block page is a dense array of stamps
 * (cycle + 1, so 0 means never accessed).  Pages are found through a
 * two-level dense index: a chunk of 4096 consecutive pages owns a
 * table of uint32 page numbers into the stamps (0 = no page yet), and
 * a small directory maps chunk numbers to tables.  Workload
 * footprints are a few dense regions, so nearly every lookup lands in
 * the chunk of the previous one; a one-chunk memo skips the directory
 * and leaves a single array load.
 */
class NextLineMonitor
{
  public:
    /** Record an access to @p block at @p cycle. */
    void
    record(Addr block, Cycle cycle)
    {
        const Addr page = block >> kPageShift;
        std::size_t base = find_page(page);
        if (base == kNoPage)
            base = add_page(page);
        stamps_[base + (block & kPageMask)] = cycle + 1;
    }

    /**
     * Would a next-line prefetcher cover an access to @p block closing
     * an interval that opened at @p open_since?  True when block-1 was
     * accessed strictly after @p open_since.
     */
    bool covers(Addr block, Cycle open_since) const;

    /**
     * Timeliness-aware variant: additionally require the trigger
     * access to precede the closing access at @p close_cycle by at
     * least @p lead_time cycles (the wakeup/re-fetch must have time to
     * complete).  The paper's accounting uses lead_time = 0; the
     * timeliness ablation uses the sleep exit path s3+s4.
     */
    bool
    covers(Addr block, Cycle open_since, Cycle close_cycle,
           Cycles lead_time) const
    {
        if (block == 0)
            return false;
        const Addr prev = block - 1;
        const std::size_t base = find_page(prev >> kPageShift);
        if (base == kNoPage)
            return false;
        const std::uint64_t stamp = stamps_[base + (prev & kPageMask)];
        if (stamp == 0)
            return false;
        const Cycle when = stamp - 1;
        const Cycle deadline =
            close_cycle >= lead_time ? close_cycle - lead_time : 0;
        const bool hit = when > open_since && when <= deadline;
        if (hit)
            ++covered_;
        return hit;
    }

    /** Coverage queries answered positively (stats). */
    std::uint64_t covered() const { return covered_; }

    /** Forget everything. */
    void reset();

    /**
     * Append the table as (block, now - last_access) pairs sorted by
     * block — a canonical, translation-invariant snapshot for the
     * analytic state signature.  The covered() counter is excluded
     * (reporting only; it never influences future coverage answers).
     */
    void append_state(std::vector<std::uint64_t> &out, Cycle now) const;

    /**
     * Shift every recorded access time forward by @p delta — the
     * analytic fast path's time warp across skipped periods.
     */
    void warp(Cycles delta);

  private:
    static constexpr unsigned kPageShift = 6;
    static constexpr Addr kPageMask = (Addr{1} << kPageShift) - 1;
    static constexpr unsigned kChunkShift = 12;
    static constexpr Addr kChunkMask = (Addr{1} << kChunkShift) - 1;
    static constexpr std::size_t kNoPage = ~std::size_t{0};

    /** Offset of @p page's stamps in stamps_ (kNoPage when absent). */
    std::size_t
    find_page(Addr page) const
    {
        const Addr chunk = page >> kChunkShift;
        if (chunk != memo_chunk_) {
            std::uint64_t table;
            if (!chunks_.get(chunk, table))
                return kNoPage;
            memo_chunk_ = chunk;
            memo_table_ = table;
        }
        const std::uint32_t slot = pages_[memo_table_ + (page & kChunkMask)];
        return slot == 0 ? kNoPage
                         : static_cast<std::size_t>(slot - 1) << kPageShift;
    }

    /** Append an all-never page for @p page; returns its offset. */
    std::size_t add_page(Addr page);

    util::FlatMap chunks_{16}; ///< chunk number -> pages_ offset
    /** Per chunk, 4096 slots: page's stamps_ offset / 64 + 1, 0 = none. */
    std::vector<std::uint32_t> pages_;
    std::vector<std::uint64_t> stamps_; ///< cycle + 1 per block; 0 = never
    // The memo moves on lookups, which covers() makes from a const
    // context.
    mutable Addr memo_chunk_ = kInvalidAddr;
    mutable std::size_t memo_table_ = 0;
    mutable std::uint64_t covered_ = 0;
};

} // namespace leakbound::prefetch

#endif // LEAKBOUND_PREFETCH_NEXT_LINE_HPP
