/**
 * @file
 * The differential oracle for cpu::InOrderCore.
 *
 * ReferenceCore is the timing core fed one µop at a time through
 * Workload::next(): each fetch group is rebuilt by peeking the next
 * instruction and checking that it sits at the expected PC in the same
 * I-line.  InOrderCore forms the same groups by arithmetic over the
 * workload's straight-line runs; both must produce the same accesses,
 * in the same order, at the same cycles, with the same statistics.
 */

#ifndef LEAKBOUND_TESTS_REFERENCE_CORE_HPP
#define LEAKBOUND_TESTS_REFERENCE_CORE_HPP

#include <algorithm>
#include <cstdint>

#include "cpu/inorder_core.hpp"
#include "sim/hierarchy.hpp"
#include "trace/record.hpp"
#include "workload/workload.hpp"

namespace leakbound::oracle {

class ReferenceCore
{
  public:
    ReferenceCore(const cpu::CoreConfig &config, sim::Hierarchy *hierarchy,
                  workload::Workload *source,
                  cpu::AccessListener *listener)
        : config_(config), hierarchy_(hierarchy), source_(source),
          listener_(listener)
    {
    }

    /** Execute up to @p max_instructions; returns run statistics. */
    cpu::CoreRunStats
    run(std::uint64_t max_instructions)
    {
        cpu::CoreRunStats stats;
        const Cycles l1i_hit = hierarchy_->config().l1i.hit_latency;
        const Cycles l1d_hit = hierarchy_->config().l1d.hit_latency;
        const std::uint32_t line_shift =
            hierarchy_->config().l1i.line_shift();

        while (stats.instructions < max_instructions) {
            if (!peek())
                break;
            const Pc group_pc = pending_.pc;
            const Addr group_line = group_pc >> line_shift;
            Cycles worst_data_penalty = 0;
            std::uint32_t group_size = 0;
            Pc expected_pc = group_pc;
            for (;;) {
                const trace::MicroOp op = pending_;
                have_pending_ = false;
                ++group_size;
                ++stats.instructions;
                if (op.kind != trace::InstrKind::Op) {
                    const bool is_store =
                        op.kind == trace::InstrKind::Store;
                    const sim::HierarchyResult dres =
                        hierarchy_->access_data(op.addr);
                    if (is_store)
                        ++stats.stores;
                    else
                        ++stats.loads;
                    if (listener_)
                        listener_->on_data_access(cycle_, op.pc, op.addr,
                                                  is_store, dres);
                    if (dres.latency > l1d_hit) {
                        worst_data_penalty =
                            std::max(worst_data_penalty,
                                     dres.latency - l1d_hit);
                    }
                }
                if (group_size >= config_.fetch_width ||
                    stats.instructions >= max_instructions)
                    break;
                expected_pc += config_.instr_bytes;
                if (!peek() || pending_.pc != expected_pc ||
                    pending_.pc >> line_shift != group_line)
                    break;
            }

            const sim::HierarchyResult ires =
                hierarchy_->access_instr(group_pc);
            if (listener_)
                listener_->on_instr_access(cycle_, group_pc, ires);
            const Cycles instr_penalty =
                ires.latency > l1i_hit ? ires.latency - l1i_hit : 0;
            const Cycles worst =
                std::max(instr_penalty, worst_data_penalty);
            const Cycles stall =
                (worst * config_.miss_overlap_percent + 50) / 100;
            ++stats.fetch_groups;
            if (worst == instr_penalty)
                stats.instr_stall_cycles += stall;
            else
                stats.data_stall_cycles += stall;
            cycle_ += 1 + stall;
        }
        stats.cycles = cycle_;
        return stats;
    }

  private:
    /** Make pending_ hold the next µop; false when the stream ends. */
    bool
    peek()
    {
        if (!have_pending_)
            have_pending_ = source_->next(pending_);
        return have_pending_;
    }

    cpu::CoreConfig config_;
    sim::Hierarchy *hierarchy_;
    workload::Workload *source_;
    cpu::AccessListener *listener_;
    Cycle cycle_ = 0;
    trace::MicroOp pending_{};
    bool have_pending_ = false;
};

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_REFERENCE_CORE_HPP
