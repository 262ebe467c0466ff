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
    const std::size_t base = stamps_.size();
    stamps_.resize(base + kPageMask + 1, 0);
    directory_.put(page, base);
    memo_page_ = page;
    memo_base_ = base;
    return base;
}

void
NextLineMonitor::append_state(std::vector<std::uint64_t> &out,
                              Cycle now) const
{
    // Pages sit in stamps_ in creation order, so sort them by number.
    std::vector<std::pair<Addr, std::uint64_t>> pages;
    pages.reserve(directory_.size());
    directory_.for_each([&](std::uint64_t page, std::uint64_t base) {
        pages.emplace_back(page, base);
    });
    std::sort(pages.begin(), pages.end());
    const std::size_t count_at = out.size();
    out.push_back(0);
    std::uint64_t count = 0;
    for (const auto &[page, base] : pages) {
        for (Addr i = 0; i <= kPageMask; ++i) {
            const std::uint64_t stamp = stamps_[base + i];
            if (stamp == 0)
                continue;
            out.push_back((page << kPageShift) | i);
            out.push_back(now - (stamp - 1));
            ++count;
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
    directory_.clear();
    stamps_.clear();
    memo_page_ = kInvalidAddr;
    covered_ = 0;
}

} // namespace leakbound::prefetch
