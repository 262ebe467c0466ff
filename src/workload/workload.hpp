/**
 * @file
 * Workload abstraction: a deterministic generator of the dynamic
 * instruction stream (PCs + data addresses) that the timing core
 * executes.
 *
 * A workload emits its stream as straight-line *runs*: a run is a
 * start PC and a count of consecutive instructions (4 bytes apart),
 * with the memory references that fall inside it.  Most instructions
 * touch no memory and code is static, so a run of ~100+ instructions
 * costs one record plus one per load/store instead of one per
 * instruction.  Generators implement exactly one emission routine,
 * next_runs(); the per-µop views next() and next_batch() expand runs
 * for the callers that want them.
 */

#ifndef LEAKBOUND_WORKLOAD_WORKLOAD_HPP
#define LEAKBOUND_WORKLOAD_WORKLOAD_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace leakbound::workload {

/** Bytes between consecutive instructions of a run. */
constexpr std::uint32_t kRunInstrBytes = 4;

/*
 * Run and MemRef carry no member initializers, so a RunBatch's arrays
 * start uninitialized: a batch is cheap to put on the stack, and only
 * the first num_runs / num_refs entries are ever read.
 */

/** Consecutive instructions at pc, pc + 4, ..., pc + 4 * (instrs - 1). */
struct Run
{
    Pc pc;
    std::uint32_t instrs;    ///< >= 1
    std::uint32_t mem_count; ///< memory references inside the run
};

/** A load or store inside a run. */
struct MemRef
{
    Addr addr;
    std::uint32_t offset;  ///< instruction index within its run
    trace::InstrKind kind; ///< Load or Store
};

/**
 * A fixed-capacity block of runs and their memory references.  Run i's
 * references are the mem_count entries of refs that follow run i-1's,
 * in increasing offset order.  Generators append until the budget,
 * kMaxRuns or kMaxRefs is reached; the consumer clears it.
 */
struct RunBatch
{
    static constexpr std::size_t kMaxRuns = 32;
    static constexpr std::size_t kMaxRefs = 256;

    std::size_t num_runs = 0;
    std::size_t num_refs = 0;
    Run runs[kMaxRuns];
    MemRef refs[kMaxRefs];

    void clear() { num_runs = num_refs = 0; }

    /** No room for another run, or for another reference. */
    bool
    full() const
    {
        return num_runs == kMaxRuns || num_refs == kMaxRefs;
    }
};

/**
 * Static facts about a workload that make it eligible for the analytic
 * fast path (src/analytic): the instruction stream is a deterministic,
 * eventually-periodic function of a finite mutable state that the
 * workload can expose via append_state().
 */
struct AnalyticProfile
{
    /**
     * Structural period of the endless top-level loop, in emitted
     * instructions.  State recurrence is only *likely* at multiples of
     * this; the fast path verifies full state equality before acting.
     */
    std::uint64_t period_instructions = 0;
};

/** A generator of dynamic instructions. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name (e.g. "gzip"). */
    virtual std::string name() const = 0;

    /**
     * Append the stream's next runs to @p batch: at most
     * @p max_instrs instructions, stopping early when the batch is
     * full().  A run may end anywhere (a long block can be split over
     * several runs or batches); consumers must not read run ends as
     * branches.  Pattern and trip draws happen as the instructions are
     * emitted, in stream order.  @return the instructions appended; 0
     * with a non-full batch means the stream is exhausted (synthetic
     * programs are endless; the core bounds execution by instruction
     * count).
     */
    virtual std::uint64_t next_runs(RunBatch &batch,
                                    std::uint64_t max_instrs) = 0;

    /**
     * Produce the next dynamic instruction (a one-instruction
     * next_runs()).  @return false when the stream is exhausted.
     */
    bool next(trace::MicroOp &op) { return next_batch(&op, 1) == 1; }

    /**
     * Produce up to @p max instructions into @p out, returning the
     * number produced (0 = exhausted): the same stream as next_runs(),
     * expanded one µop per instruction.
     */
    std::size_t next_batch(trace::MicroOp *out, std::size_t max);

    /** Restart the stream deterministically from the beginning. */
    virtual void reset() = 0;

    /**
     * The workload's analytic profile, or nullopt when the stream is
     * not a deterministic function of exposable finite state (random
     * trip counts, RNG-driven data patterns, phase interleaving...).
     * Returning a profile is a *claim of determinism* the analytic
     * engine relies on — append_state() must then capture everything
     * the future stream depends on.
     */
    virtual std::optional<AnalyticProfile>
    analytic_profile() const
    {
        return std::nullopt;
    }

    /**
     * Append the workload's full mutable state to @p out; @return false
     * (appending nothing useful) when the workload does not support
     * analytic snapshots.  Must return true whenever analytic_profile()
     * returns a profile.
     */
    virtual bool
    append_state(std::vector<std::uint64_t> &out) const
    {
        (void)out;
        return false;
    }
};

/** Owning workload handle. */
using WorkloadPtr = std::unique_ptr<Workload>;

/**
 * Round-robin phase interleaver: runs each child for its quantum of
 * instructions, then moves to the next, looping forever.  Used to give
 * benchmarks multi-phase behaviour (e.g. parse vs optimize phases),
 * which creates the very long cross-phase idle intervals the 180nm
 * results depend on.
 */
class CompositeWorkload final : public Workload
{
  public:
    /** One phase: a child workload and its per-visit quantum. */
    struct Phase
    {
        WorkloadPtr child;
        std::uint64_t quantum;
    };

    CompositeWorkload(std::string name, std::vector<Phase> phases);

    std::string name() const override { return name_; }
    std::uint64_t next_runs(RunBatch &batch,
                            std::uint64_t max_instrs) override;
    void reset() override;

  private:
    std::string name_;
    std::vector<Phase> phases_;
    std::size_t current_ = 0;
    std::uint64_t executed_in_phase_ = 0;
};

} // namespace leakbound::workload

#endif // LEAKBOUND_WORKLOAD_WORKLOAD_HPP
