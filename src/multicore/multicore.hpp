/**
 * @file
 * Multi-core shared-L2 simulator: N in-order cores with private L1s
 * over one shared L2, store-snoop invalidation between the L1Ds, and a
 * deterministic cycle interleaver.
 *
 * The engine is the multicore counterpart of core::run_experiment:
 * per-core interval populations come from per-core collectors driven
 * by the exact CollectingListener the single-core engine uses, and the
 * shared L2's population comes from one collector over all its frames,
 * the histogram the oracle bound is computed from.  An L2 line's sleep
 * interval ends when *any* core touches it through a miss or kills a
 * sharer's copy with a store.
 *
 * Determinism contract: the interleaver is a single-threaded loop that
 * runs the core with the minimum (cycle, core_id) pair through the
 * templated run loop (InOrderCore::run_with) until another core becomes
 * the minimum.  The other cores' clocks are frozen meanwhile, so the
 * event order is exactly the one-fetch-group-per-step order, and every
 * histogram, statistic, and serialized byte is a pure function of the
 * configuration.  A store snoops the other cores' L1Ds in core-id
 * order, except a repeat store to a block no L1D has filled since the
 * core's last snoop of it.  Results are byte-identical across --jobs
 * values and across runs, and the N=1 configuration reduces exactly to
 * the single-core engine (test_multicore_equivalence proves both).
 */

#ifndef LEAKBOUND_MULTICORE_MULTICORE_HPP
#define LEAKBOUND_MULTICORE_MULTICORE_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "cpu/inorder_core.hpp"
#include "sim/cache.hpp"

namespace leakbound::multicore {

/** What one core of a multicore run produced. */
struct CoreOutcome
{
    /** The benchmark this core ran (its slot of the resolved mix). */
    std::string workload;
    /**
     * This core's run statistics; cycles is the core's own final
     * cycle, which can trail the run's end_cycle (cores retire their
     * instruction budgets at different rates).
     */
    cpu::CoreRunStats stats;
    core::CacheObservation icache; ///< this core's private L1I
    core::CacheObservation dcache; ///< this core's private L1D
    /** Copies of this core's L1D lines killed by other cores' stores. */
    std::uint64_t invalidations_received = 0;

    CoreOutcome(core::CacheObservation ic, core::CacheObservation dc)
        : icache(std::move(ic)), dcache(std::move(dc))
    {
    }
};

/** Everything one multicore run produced. */
struct MulticoreResult
{
    /**
     * Composite workload label: the benchmark name itself for N=1
     * (anchoring the byte-identity reduction), "mc<N>:a+b+..." for
     * N > 1.
     */
    std::string label;
    /** One entry per core, in core-id order. */
    std::vector<CoreOutcome> cores;
    /**
     * The shared L2's interval population (one collector over all its
     * frames), present when collect_l2 was set.
     */
    std::optional<core::CacheObservation> l2cache;
    sim::CacheStats l2;     ///< shared-L2 statistics
    Cycle end_cycle = 0;    ///< max core cycle; every collector's close
    /** L1D copies killed by store snoops, in total. */
    std::uint64_t invalidations = 0;
    /** Stores that killed at least one remote copy. */
    std::uint64_t invalidating_stores = 0;
    /**
     * L2 intervals closed by an invalidation rather than a touch (a
     * store that hit its own L1D, so the L2 saw no access, but whose
     * coherence action reached the shared line).  Only counted while
     * collect_l2 is on — it exists to make every L2 interval boundary
     * attributable (accesses + these closes + trailing finalizes).
     */
    std::uint64_t l2_interval_closes = 0;

    /**
     * Flatten into the single-core result shape: summed core stats
     * (cycles = end_cycle), per-level observations merged across
     * cores, workload = label.  For N=1 this is byte-identical (under
     * core::serialize_result) to the single-core engine's output.
     */
    core::ExperimentResult to_experiment_result() const;
};

/**
 * Resolve the per-core benchmark list: a non-empty config mix is taken
 * verbatim (validate() has pinned its length to core_count); an empty
 * mix replicates @p benchmark core_count times, which requires it to
 * be a suite benchmark (util::StatusError(InvalidArgument) otherwise —
 * multicore cores are constructed from names, not from a live workload
 * instance).
 */
std::vector<std::string>
resolve_mix(const std::string &benchmark,
            const core::ExperimentConfig &config);

/** The composite label for a resolved mix (see MulticoreResult). */
std::string mix_label(const std::vector<std::string> &names);

/**
 * Run the multicore simulation.  Throws util::StatusError with a typed
 * InvalidArgument status on a malformed config (config.validate(),
 * keep_raw — raw-interval retention is single-core only — or an
 * unresolvable mix).
 */
MulticoreResult run_multicore(const std::string &benchmark,
                              const core::ExperimentConfig &config);

/**
 * run_multicore() flattened to the single-core result shape (see
 * MulticoreResult::to_experiment_result); what core::run_experiment
 * dispatches to for multicore configs.
 */
core::ExperimentResult
run_multicore_summary(const std::string &benchmark,
                      const core::ExperimentConfig &config);

} // namespace leakbound::multicore

#endif // LEAKBOUND_MULTICORE_MULTICORE_HPP
