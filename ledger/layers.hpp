/**
 * @file
 * The traced ledger: time each layer from outside by calling its
 * public functions on inputs captured from the workload's own runs.
 */

#ifndef LEAKBOUND_LEDGER_LAYERS_HPP
#define LEAKBOUND_LEDGER_LAYERS_HPP

#include <map>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace leakbound::ledger {

/** One single-core run the ledger captures and replays. */
struct CaptureSpec
{
    std::string name;
    std::uint64_t seed = 0; ///< make_benchmark seed (0 = in-program)
};

/** Per-layer busy time and work counts, summed over captured runs. */
struct LayerTotals
{
    double run_s = 0.0; ///< run_experiment, untraced (the glue's whole)
    std::uint64_t instructions = 0;

    double workload_s = 0.0;
    std::uint64_t uops = 0;

    double cpu_run_s = 0.0; ///< InOrderCore::run with a no-op listener

    double l1i_s = 0.0, l1d_s = 0.0, l2_s = 0.0, l2_16way_s = 0.0;
    std::uint64_t l1i_accesses = 0, l1i_misses = 0;
    std::uint64_t l1d_accesses = 0, l1d_misses = 0;
    std::uint64_t l2_accesses = 0, l2_misses = 0;

    double collect_s = 0.0; ///< on_access + finalize, binning included
    std::uint64_t collect_accesses = 0;
    double bin_s = 0.0;
    std::uint64_t intervals = 0;

    double stride_s = 0.0;
    std::uint64_t stride_accesses = 0, stride_covered = 0;
    double nextline_s = 0.0;
    std::uint64_t nl_accesses = 0, nl_attempts = 0, nl_covered = 0;

    std::vector<double> classify_us;
    std::uint64_t analytic_commits = 0, analytic_runs = 0;

    /** Per benchmark: workload + sim (16-way L2) + interval seconds. */
    std::map<std::string, double> multicore_share_s;

    /** Sum of the single-core layer self times, in seconds. */
    double self_sum_s() const;
};

/**
 * Run @p spec under @p config three ways — run_experiment (the
 * reference), a capturing InOrderCore::run through
 * core::CollectingListener, and one replay per layer — add the times to
 * @p totals, and count every replay-fidelity failure in @p out.  The
 * captured streams are released before returning.  Returns the
 * reference result.
 */
core::ExperimentResult capture_and_replay(const CaptureSpec &spec,
                                          const core::ExperimentConfig &config,
                                          LayerTotals &totals, Outcome &out,
                                          Tracer &tracer);

/** Report the single-core layer metrics and glue.ns_per_instr. */
void report_single_core_layers(const LayerTotals &totals, Outcome &out);

/**
 * Time the core layer — the fig8 policy grid, serialize_result and
 * deserialize_result, ArtifactCache::store and try_load (in a fresh
 * directory under @p scratch_dir) — on @p results.
 */
void report_core_layer(
    const std::vector<const core::ExperimentResult *> &results,
    const std::string &scratch_dir, Outcome &out, Tracer &tracer);

/**
 * Time run_multicore over @p mixes (core count = mix size, 16-way
 * shared L2, collect_l2) and report the multicore layer: its self time
 * is run_multicore minus each core's workload, sim and interval shares
 * from @p solo (captured solo at the same per-core budget).
 */
void report_multicore_layer(const std::vector<std::vector<std::string>> &mixes,
                            std::uint64_t instructions_per_core,
                            const LayerTotals &solo, Outcome &out,
                            Tracer &tracer);

/** The heterogeneous multicore mix, in its paper order. */
const std::vector<std::string> &hetero_mix();

/**
 * The multicore layer for a workload whose own traffic has no
 * multicore run: the heterogeneous mix at a small per-core budget.
 */
void report_multicore_probe(const Options &opts, Outcome &out,
                            Tracer &tracer);

/** The multicore configuration both the workload and the probe use. */
core::ExperimentConfig multicore_config(const std::vector<std::string> &mix,
                                        std::uint64_t instructions_per_core);

} // namespace leakbound::ledger

#endif // LEAKBOUND_LEDGER_LAYERS_HPP
