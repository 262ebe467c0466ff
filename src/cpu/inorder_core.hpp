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
 * The run loop is a template over the access listener, so a run with a
 * concrete listener type (core::run_one, the multicore engine)
 * compiles into one devirtualized routine; the AccessListener
 * interface rides on the same loop through a thin adapter.
 *
 * Fetch is run-granular: the core buffers a RunBatch filled by
 * Workload::next_runs and forms each fetch group by arithmetic over
 * the current run — as many instructions as the fetch width, the run,
 * the I-line and the budget allow — issuing the memory references
 * that fall inside the group.  A group continues into the next run
 * only when that run starts at the expected PC in the same I-line.
 * While a GroupHook is installed (the analytic fast path) each refill
 * asks for one instruction, so the workload never runs more than the
 * one peeked instruction ahead of the core.
 */

#ifndef LEAKBOUND_CPU_INORDER_CORE_HPP
#define LEAKBOUND_CPU_INORDER_CORE_HPP

#include <algorithm>
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
     * run() with a concrete (non-virtual) listener: the plain
     * simulation path.  @p L provides on_instr(cycle, pc, result),
     * on_data(cycle, pc, addr, is_store, result) and on_group_end(),
     * all of which inline into the loop.  The op stream, timing, and statistics are
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

    /** Current cycle (end-of-run timestamp after run()). */
    Cycle cycle() const { return cycle_; }

    /**
     * Advance the clock by @p delta without executing anything — the
     * analytic fast path's time warp across skipped periods.
     */
    void warp_cycles(Cycles delta) { cycle_ += delta; }

    /**
     * Append the fetch stage's mutable state — the instructions
     * buffered but not yet executed — to @p out, as part of the
     * analytic state signature.  Hooked runs refill one instruction at
     * a time, so between their groups at most one is buffered.
     */
    void
    append_state(std::vector<std::uint64_t> &out) const
    {
        const std::size_t count_at = out.size();
        out.push_back(0);
        std::uint64_t count = 0;
        std::size_t ref = ref_pos_;
        std::size_t ref_end = ref_end_;
        std::uint32_t from = run_done_;
        for (std::size_t r = run_pos_; r < batch_.num_runs; ++r) {
            const workload::Run &run = batch_.runs[r];
            if (r != run_pos_)
                ref_end = ref + run.mem_count;
            for (std::uint32_t i = from; i < run.instrs; ++i, ++count) {
                out.push_back(run.pc + static_cast<Pc>(i) *
                                           workload::kRunInstrBytes);
                const bool mem =
                    ref < ref_end && batch_.refs[ref].offset == i;
                out.push_back(static_cast<std::uint64_t>(
                    mem ? batch_.refs[ref].kind : trace::InstrKind::Op));
                out.push_back(mem ? batch_.refs[ref++].addr : 0);
            }
            from = 0;
        }
        out[count_at] = count;
    }

  private:
    /**
     * Refill the empty run buffer with up to @p budget instructions;
     * false when the workload is exhausted.  Starts the first run.
     */
    bool
    refill(std::uint64_t budget)
    {
        batch_.clear();
        run_pos_ = 0;
        run_done_ = 0;
        ref_pos_ = 0;
        if (source_->next_runs(batch_, budget) == 0)
            return false;
        ref_end_ = batch_.runs[0].mem_count;
        return true;
    }

    /** Step past the exhausted current run. */
    void
    next_run()
    {
        ++run_pos_;
        run_done_ = 0;
        if (run_pos_ < batch_.num_runs)
            ref_end_ = ref_pos_ + batch_.runs[run_pos_].mem_count;
    }

    /** The run loop, shared by every entry point (see run_with). */
    template <typename L>
    CoreRunStats
    run_loop(std::uint64_t max_instructions, const GroupHook &hook,
             L &listener, Cycle stop_cycle = kNeverStop)
    {
        // A hooked run takes state signatures between groups, so the
        // workload must not run ahead of the core: refill one
        // instruction at a time.
        const bool one_at_a_time = static_cast<bool>(hook);

        CoreRunStats stats;
        const Cycles l1i_hit = hierarchy_->config().l1i.hit_latency;
        const Cycles l1d_hit = hierarchy_->config().l1d.hit_latency;
        const std::uint32_t line_shift =
            hierarchy_->config().l1i.line_shift();
        const Pc line_bytes = Pc{1} << line_shift;
        const std::uint32_t width = config_.fetch_width;
        // Within a run instructions sit kRunInstrBytes apart; a core
        // expecting another spacing sees every run as one-instruction
        // groups (the next instruction is never where it expects).
        const bool runs_contiguous =
            config_.instr_bytes == workload::kRunInstrBytes;
        auto refill_budget = [&] {
            return one_at_a_time ? std::uint64_t{1}
                                 : max_instructions - stats.instructions;
        };

        while (stats.instructions < max_instructions) {
            if (run_pos_ == batch_.num_runs && !refill(refill_budget()))
                break; // finite workload exhausted

            // Form the fetch group: sequential PCs within one I-line,
            // up to the fetch width.  A taken branch (PC discontinuity)
            // ends the group, as does a line boundary.
            const workload::Run *run = &batch_.runs[run_pos_];
            Pc pc = run->pc +
                    static_cast<Pc>(run_done_) * workload::kRunInstrBytes;
            const Pc group_pc = pc;
            const Addr group_line = group_pc >> line_shift;
            const Pc line_end = (group_line << line_shift) + line_bytes;

            Cycles worst_data_penalty = 0;
            std::uint32_t group_size = 0;
            for (;;) {
                // Take what this run can give the group.
                std::uint64_t take = std::min<std::uint64_t>(
                    {width - group_size, run->instrs - run_done_,
                     max_instructions - stats.instructions});
                const Pc left_in_line =
                    (line_end - pc + workload::kRunInstrBytes - 1) /
                    workload::kRunInstrBytes;
                take = std::min<std::uint64_t>(take, left_in_line);
                if (!runs_contiguous)
                    take = 1;
                const std::uint32_t end =
                    run_done_ + static_cast<std::uint32_t>(take);
                for (; ref_pos_ < ref_end_ &&
                       batch_.refs[ref_pos_].offset < end;
                     ++ref_pos_) {
                    const workload::MemRef &ref = batch_.refs[ref_pos_];
                    const bool is_store =
                        ref.kind == trace::InstrKind::Store;
                    const sim::HierarchyResult dres =
                        hierarchy_->access_data(ref.addr);
                    if (is_store)
                        ++stats.stores;
                    else
                        ++stats.loads;
                    listener.on_data(cycle_,
                                     run->pc + static_cast<Pc>(ref.offset) *
                                                   workload::kRunInstrBytes,
                                     ref.addr, is_store, dres);
                    if (dres.latency > l1d_hit) {
                        worst_data_penalty =
                            std::max(worst_data_penalty,
                                     dres.latency - l1d_hit);
                    }
                }
                group_size += static_cast<std::uint32_t>(take);
                stats.instructions += take;
                run_done_ = end;
                // The PC the group's next instruction must have.
                pc += (take - 1) * workload::kRunInstrBytes +
                      config_.instr_bytes;

                const bool run_spent = run_done_ == run->instrs;
                if (run_spent)
                    next_run();
                if (group_size >= width ||
                    stats.instructions >= max_instructions || !run_spent)
                    break;
                if (run_pos_ == batch_.num_runs &&
                    !refill(refill_budget()))
                    break;
                run = &batch_.runs[run_pos_];
                if (run->pc != pc || run->pc >> line_shift != group_line)
                    break;
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

    /**
     * Buffered runs: run_pos_ is the current one, run_done_ of its
     * instructions are executed, ref_pos_ is its next reference and
     * ref_end_ one past its last.
     */
    workload::RunBatch batch_;
    std::size_t run_pos_ = 0;
    std::uint32_t run_done_ = 0;
    std::size_t ref_pos_ = 0;
    std::size_t ref_end_ = 0;
};

} // namespace leakbound::cpu

#endif // LEAKBOUND_CPU_INORDER_CORE_HPP
