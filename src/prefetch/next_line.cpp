/**
 * @file
 * Implementation of the next-line coverage monitor.
 */

#include "prefetch/next_line.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace leakbound::prefetch {

bool
NextLineMonitor::covers(Addr block, Cycle open_since) const
{
    return covers(block, open_since,
                  std::numeric_limits<Cycle>::max(), 0);
}

std::size_t
NextLineMonitor::add_page(Addr page)
{
    const Addr chunk = page >> kChunkShift;
    std::uint64_t table;
    if (!chunks_.get(chunk, table)) {
        table = pages_.size();
        pages_.resize(table + kChunkMask + 1, 0);
        chunks_.put(chunk, table);
    }
    memo_chunk_ = chunk;
    memo_table_ = table;
    const std::size_t base = stamps_.size();
    stamps_.resize(base + kPageMask + 1, 0);
    pages_[table + (page & kChunkMask)] =
        static_cast<std::uint32_t>((base >> kPageShift) + 1);
    return base;
}

void
NextLineMonitor::append_state(std::vector<std::uint64_t> &out,
                              Cycle now) const
{
    // Walk the chunks in number order and each chunk's pages in index
    // order: blocks come out sorted.
    std::vector<std::pair<Addr, std::uint64_t>> chunks;
    chunks.reserve(chunks_.size());
    chunks_.for_each([&](std::uint64_t chunk, std::uint64_t table) {
        chunks.emplace_back(chunk, table);
    });
    std::sort(chunks.begin(), chunks.end());
    const std::size_t count_at = out.size();
    out.push_back(0);
    std::uint64_t count = 0;
    for (const auto &[chunk, table] : chunks) {
        for (Addr p = 0; p <= kChunkMask; ++p) {
            const std::uint32_t slot = pages_[table + p];
            if (slot == 0)
                continue;
            const std::size_t base =
                static_cast<std::size_t>(slot - 1) << kPageShift;
            const Addr page = (chunk << kChunkShift) | p;
            for (Addr i = 0; i <= kPageMask; ++i) {
                const std::uint64_t stamp = stamps_[base + i];
                if (stamp == 0)
                    continue;
                out.push_back((page << kPageShift) | i);
                out.push_back(now - (stamp - 1));
                ++count;
            }
        }
    }
    out[count_at] = count;
}

void
NextLineMonitor::warp(Cycles delta)
{
    for (std::uint64_t &stamp : stamps_)
        if (stamp != 0)
            stamp += delta;
}

void
NextLineMonitor::reset()
{
    chunks_.clear();
    pages_.clear();
    stamps_.clear();
    memo_chunk_ = kInvalidAddr;
    covered_ = 0;
}

} // namespace leakbound::prefetch
