/**
 * @file
 * A straight-line code block of a synthetic program (a loop-nest block
 * or a call-graph function body) and its emission as runs.
 *
 * The block's static shape — which instructions load or store — is
 * fixed at construction and stored as the list of its memory
 * instructions only; emission turns any span of it into one Run plus
 * one MemRef per memory instruction (found by binary search), drawing
 * the addresses from the block's data pattern in instruction order.
 */

#ifndef LEAKBOUND_WORKLOAD_CODE_BLOCK_HPP
#define LEAKBOUND_WORKLOAD_CODE_BLOCK_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "workload/data_pattern.hpp"
#include "workload/workload.hpp"

namespace leakbound::workload {

class CodeBlock
{
  public:
    /** A memory instruction: its index in the block and its kind. */
    struct MemSlot
    {
        std::uint32_t offset;
        trace::InstrKind kind; ///< Load or Store
    };

    CodeBlock() = default;

    /**
     * The block of @p instrs instructions at @p base_pc whose memory
     * instructions are @p mem, in increasing offset order.
     */
    CodeBlock(Pc base_pc, std::uint32_t instrs,
              const std::vector<MemSlot> &mem)
        : base_pc_(base_pc), instrs_(instrs), mem_(mem)
    {
    }

    Pc base_pc() const { return base_pc_; }
    std::uint32_t instrs() const { return instrs_; }

    /**
     * Append instructions [from, from + n) to @p batch as one run,
     * where n is as large as @p budget, the block's end and the
     * batch's free references allow; @p batch must not be full().
     * Each memory instruction's address is drawn from @p pattern, in
     * order.  @return n (>= 1: a span reaches at least up to the
     * first reference that misses out, and one always fits).
     */
    std::uint32_t
    emit(std::uint32_t from, std::uint64_t budget, DataPattern *pattern,
         RunBatch &batch) const
    {
        std::uint32_t end =
            budget < instrs_ - from
                ? from + static_cast<std::uint32_t>(budget)
                : instrs_;
        const std::size_t m0 = first_mem_at_or_after(from);
        std::size_t m1 = first_mem_at_or_after(end);
        const std::size_t room = RunBatch::kMaxRefs - batch.num_refs;
        if (m1 - m0 > room) {
            m1 = m0 + room;
            end = mem_[m1].offset; // the first reference that misses out
        }
        const std::uint32_t n = end - from;
        const auto count = static_cast<std::uint32_t>(m1 - m0);
        batch.runs[batch.num_runs++] =
            Run{base_pc_ + static_cast<Pc>(from) * kRunInstrBytes, n,
                count};
        if (count != 0) {
            Addr addrs[RunBatch::kMaxRefs];
            pattern->fill(addrs, count);
            MemRef *out = batch.refs + batch.num_refs;
            for (std::size_t m = m0; m < m1; ++m) {
                *out++ = MemRef{addrs[m - m0], mem_[m].offset - from,
                                mem_[m].kind};
            }
            batch.num_refs += count;
        }
        return n;
    }

  private:
    /** Index into mem_ of the first memory instruction >= @p offset. */
    std::size_t
    first_mem_at_or_after(std::uint32_t offset) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(mem_.begin(), mem_.end(), offset,
                             [](const MemSlot &slot, std::uint32_t o) {
                                 return slot.offset < o;
                             }) -
            mem_.begin());
    }

    Pc base_pc_ = 0;
    std::uint32_t instrs_ = 0;
    std::vector<MemSlot> mem_; ///< the memory instructions, in order
};

} // namespace leakbound::workload

#endif // LEAKBOUND_WORKLOAD_CODE_BLOCK_HPP
