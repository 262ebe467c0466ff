/**
 * @file
 * Four-wide in-order timing core (the SimpleScalar/Alpha-21264
 * substitute; DESIGN.md §3).
 *
 * Each cycle the core fetches up to `fetch_width` sequential
 * instructions from a single instruction cache line (one L1I access
 * per fetch group), issues the group's loads/stores to the L1D, and
 * advances time by one cycle plus any miss penalties.  This produces
 * the cycle-stamped per-frame access streams the interval analysis
 * consumes; the limit study needs relative access timing, not precise
 * out-of-order overlap.
 *
 * The run loop is a template over the access listener, so the kernel
 * path (core::run_one with a concrete listener type) compiles into one
 * devirtualized routine; the classic AccessListener interface rides on
 * the same loop through a thin adapter.  Instruction fetch consumes
 * from a small ring refilled via Workload::next_batch — one virtual
 * call per ring instead of one per µop — except while a GroupHook is
 * installed (the analytic fast path), where the workload must never
 * run ahead of the µop the core consumes next.
 */

#ifndef LEAKBOUND_CPU_INORDER_CORE_HPP
#define LEAKBOUND_CPU_INORDER_CORE_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/hierarchy.hpp"
#include "trace/record.hpp"
#include "util/status.hpp"
#include "workload/workload.hpp"

namespace leakbound::cpu {

/** Core parameters. */
struct CoreConfig
{
    std::uint32_t fetch_width = 4; ///< instructions per fetch group
    std::uint32_t instr_bytes = 4; ///< fixed-width Alpha-style encoding
    /**
     * Fraction (percent) of the worst miss penalty in a fetch group
     * that actually stalls the core.  Approximates the out-of-order
     * 21264's ability to overlap misses with useful work and with each
     * other: misses within a group fully overlap (max, not sum), and
     * the remainder is discounted by this factor.  100 = fully
     * blocking, 0 = misses are free.
     */
    std::uint32_t miss_overlap_percent = 50;

    /**
     * Check invariants; InvalidArgument when fetch_width is zero.
     * InOrderCore's constructor throws util::StatusError on a bad
     * config, so a malformed request fails its own job instead of
     * killing the process.
     */
    util::Status validate() const;
};

/**
 * Observer of the core's cache accesses; the experiment glue implements
 * this to drive interval collection and prefetch bookkeeping.
 */
class AccessListener
{
  public:
    virtual ~AccessListener() = default;

    /** A fetch-group access to L1I at @p cycle for the line of @p pc. */
    virtual void on_instr_access(Cycle cycle, Pc pc,
                                 const sim::HierarchyResult &result) = 0;

    /** A load/store by @p pc to @p addr at @p cycle. */
    virtual void on_data_access(Cycle cycle, Pc pc, Addr addr,
                                bool is_store,
                                const sim::HierarchyResult &result) = 0;
};

/** Statistics of one core run. */
struct CoreRunStats
{
    std::uint64_t instructions = 0;
    Cycles cycles = 0;
    std::uint64_t fetch_groups = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Cycles instr_stall_cycles = 0; ///< cycles lost to L1I misses
    Cycles data_stall_cycles = 0;  ///< cycles lost to L1D misses

    /** Instructions per cycle. */
    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * The timing core.  Construct, then run() once; the final cycle count
 * is the interval analysis' end-of-run timestamp.
 */
class InOrderCore
{
  public:
    /**
     * @param config core parameters (validated; util::StatusError on a
     *        malformed config)
     * @param hierarchy the memory system (not owned)
     * @param source the workload generating instructions (not owned)
     * @param listener optional access observer (not owned)
     */
    InOrderCore(const CoreConfig &config, sim::Hierarchy *hierarchy,
                workload::Workload *source,
                AccessListener *listener = nullptr);

    /**
     * Observer called between fetch groups with the running stats
     * (stats.cycles is kept current).  Returning false stops the run
     * early; the instruction stream position is preserved, so a later
     * run() continues exactly where this one stopped.
     */
    using GroupHook = std::function<bool(const CoreRunStats &)>;

    /** run_with's stop cycle when only the budget ends the run. */
    static constexpr Cycle kNeverStop = ~Cycle{0};

    /** Execute up to @p max_instructions; returns run statistics. */
    CoreRunStats run(std::uint64_t max_instructions);

    /** run() with a between-groups observer (see GroupHook). */
    CoreRunStats run(std::uint64_t max_instructions,
                     const GroupHook &hook);

    /**
     * run() with a concrete (non-virtual) listener: the kernel path.
     * @p L provides on_instr(cycle, pc, result), on_data(cycle, pc,
     * addr, is_store, result) and on_group_end(), all of which inline
     * into the loop.  The op stream, timing, and statistics are
     * byte-identical to run() over an equivalent AccessListener.
     * The run also stops after the first fetch group that leaves the
     * clock at or past @p stop_cycle, with the stream position
     * preserved for the next run (the multicore interleaver's step).
     */
    template <typename L>
    CoreRunStats
    run_with(std::uint64_t max_instructions, L &listener,
             Cycle stop_cycle = kNeverStop)
    {
        return run_loop(max_instructions, GroupHook(), listener,
                        stop_cycle);
    }

    /**
     * Enable/disable batched fetch (default on).  The op stream is
     * identical either way — batching only changes *when* the workload
     * generates ops, never which — but the reference arm of the kernel
     * differential fuzzer turns it off to exercise the one-virtual-call
     * -per-µop path.
     */
    void set_batch_fetch(bool on) { batch_fetch_ = on; }

    /** Current cycle (end-of-run timestamp after run()). */
    Cycle cycle() const { return cycle_; }

    /**
     * Advance the clock by @p delta without executing anything — the
     * analytic fast path's time warp across skipped periods.
     */
    void warp_cycles(Cycles delta) { cycle_ += delta; }

    /**
     * Append the fetch stage's mutable state (the buffered lookahead
     * instruction and any ring-buffered batch) to @p out — part of the
     * analytic state signature.  Hooked runs never refill the ring, so
     * in analytic signatures the ring contribution is a constant 0.
     */
    void
    append_state(std::vector<std::uint64_t> &out) const
    {
        out.push_back(have_pending_ ? 1 : 0);
        out.push_back(have_pending_ ? pending_.pc : 0);
        out.push_back(have_pending_
                          ? static_cast<std::uint64_t>(pending_.kind)
                          : 0);
        out.push_back(have_pending_ ? pending_.addr : 0);
        out.push_back(ring_len_ - ring_pos_);
        for (std::uint32_t i = ring_pos_; i < ring_len_; ++i) {
            out.push_back(ring_[i].pc);
            out.push_back(static_cast<std::uint64_t>(ring_[i].kind));
            out.push_back(ring_[i].addr);
        }
    }

  private:
    /** Ops buffered per Workload::next_batch refill. */
    static constexpr std::uint32_t kFetchRing = 64;

    /**
     * Expose the next op without consuming it, or nullptr when the
     * workload is exhausted.  The pointer aims into the fetch ring (or
     * the pending slot) and stays valid until the next peek — consume()
     * never moves data, so the run loop reads op fields in place
     * instead of copying 24-byte MicroOps through a peek/fetch shuffle.
     * Ring leftovers always drain first, so mixed batched/unbatched
     * run() sequences still consume the stream in order; refills only
     * happen here, and only while batching is active.
     */
    const trace::MicroOp *
    peek_ptr()
    {
        if (have_pending_)
            return &pending_;
        if (ring_pos_ < ring_len_)
            return &ring_[ring_pos_];
        if (batch_active_) {
            ring_len_ = static_cast<std::uint32_t>(
                source_->next_batch(ring_.data(), kFetchRing));
            ring_pos_ = 0;
            return ring_len_ != 0 ? &ring_[0] : nullptr;
        }
        if (source_->next(pending_)) {
            have_pending_ = true;
            return &pending_;
        }
        return nullptr;
    }

    /** Consume the op peek_ptr() last returned. */
    void
    consume()
    {
        if (have_pending_)
            have_pending_ = false;
        else
            ++ring_pos_;
    }

    /** The run loop, shared by every entry point (see run_with). */
    template <typename L>
    CoreRunStats
    run_loop(std::uint64_t max_instructions, const GroupHook &hook,
             L &listener, Cycle stop_cycle = kNeverStop)
    {
        // A hooked run takes state signatures between groups; the
        // workload must not be driven ahead of consumption, so the
        // ring never refills (leftovers from an earlier batched run
        // still drain, and the signature captures them).
        batch_active_ = batch_fetch_ && !hook;

        CoreRunStats stats;
        const Cycles l1i_hit = hierarchy_->config().l1i.hit_latency;
        const Cycles l1d_hit = hierarchy_->config().l1d.hit_latency;
        const std::uint32_t line_shift =
            hierarchy_->config().l1i.line_shift();

        while (stats.instructions < max_instructions) {
            const trace::MicroOp *op = peek_ptr();
            if (!op)
                break; // finite workload exhausted

            // Form the fetch group: sequential PCs within one I-line,
            // up to the fetch width.  A taken branch (PC discontinuity)
            // ends the group, as does a line boundary.
            const Pc group_pc = op->pc;
            const Addr group_line = group_pc >> line_shift;

            Cycles worst_data_penalty = 0;
            std::uint32_t group_size = 0;
            Pc expected_pc = group_pc;
            for (;;) {
                // `op` is the accepted instruction at `expected_pc`;
                // consume it before processing (the next peek may
                // refill the ring, but only after `op` is done).
                consume();
                ++group_size;
                ++stats.instructions;
                if (op->kind != trace::InstrKind::Op) {
                    const bool is_store =
                        op->kind == trace::InstrKind::Store;
                    const sim::HierarchyResult dres =
                        hierarchy_->access_data(op->addr);
                    if (is_store)
                        ++stats.stores;
                    else
                        ++stats.loads;
                    listener.on_data(cycle_, op->pc, op->addr, is_store,
                                     dres);
                    if (dres.latency > l1d_hit) {
                        worst_data_penalty =
                            std::max(worst_data_penalty,
                                     dres.latency - l1d_hit);
                    }
                }

                if (group_size >= config_.fetch_width ||
                    stats.instructions >= max_instructions) {
                    break;
                }
                expected_pc += config_.instr_bytes;
                const trace::MicroOp *next_op = peek_ptr();
                if (!next_op || next_op->pc != expected_pc ||
                    next_op->pc >> line_shift != group_line) {
                    break;
                }
                op = next_op;
            }

            // One instruction-cache access per fetch group.
            const sim::HierarchyResult ires =
                hierarchy_->access_instr(group_pc);
            listener.on_instr(cycle_, group_pc, ires);
            const Cycles instr_penalty =
                ires.latency > l1i_hit ? ires.latency - l1i_hit : 0;

            // Misses within the group overlap with each other (take the
            // max) and partially with downstream work (the discount);
            // see CoreConfig::miss_overlap_percent.
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
            listener.on_group_end();

            if (hook) {
                stats.cycles = cycle_;
                if (!hook(stats))
                    break;
            }
            if (cycle_ >= stop_cycle)
                break;
        }

        stats.cycles = cycle_;
        return stats;
    }

    CoreConfig config_;
    sim::Hierarchy *hierarchy_;
    workload::Workload *source_;
    AccessListener *listener_;
    Cycle cycle_ = 0;

    trace::MicroOp pending_{};
    bool have_pending_ = false;

    std::array<trace::MicroOp, kFetchRing> ring_{};
    std::uint32_t ring_pos_ = 0;
    std::uint32_t ring_len_ = 0;
    bool batch_fetch_ = true;  ///< batching enabled (see set_batch_fetch)
    bool batch_active_ = false; ///< batching in force for the active run
};

} // namespace leakbound::cpu

#endif // LEAKBOUND_CPU_INORDER_CORE_HPP
