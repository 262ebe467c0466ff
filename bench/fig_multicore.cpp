/**
 * @file
 * Multicore extension: the paper's limit argument under shared-L2
 * contention.
 *
 * Sweeps core count {1, 2, 4, 8} x workload mix (homogeneous stream /
 * stencil / chase plus heterogeneous blends, each pattern cycled to
 * the core count) through the deterministic multicore engine
 * (multicore::run_multicore) and reports, per cell:
 *
 *   - aggregate IPC and the coherence traffic the store snoops
 *     generated (invalidations, invalidating stores, L2 intervals
 *     closed by invalidation instead of touch);
 *   - the 70nm per-level oracle bounds: OPT-Drowsy / OPT-Sleep /
 *     OPT-Hybrid pooled across every core's private L1s, and the same
 *     bounds on the shared L2's interval population.
 *
 * The committed BENCH_multicore.json is this binary's --json report.
 * The default --l2-assoc of 16 is the kernel's widest packable
 * geometry, so every cache runs the kernel and the report's "sim path"
 * column reads "kernel"; --l2-assoc 1 restores the stock direct-mapped
 * geometry, and an --l2-assoc above 16 falls back to the reference
 * decision logic for the L2 (the column then reads "mixed").
 *
 * Results are byte-identical across --jobs values and across runs:
 * the interleaver is a pure function of the configuration (see
 * DESIGN.md, "Multi-core hierarchy").
 */

#include <chrono>

#include "bench_common.hpp"
#include "core/generalized_model.hpp"
#include "multicore/multicore.hpp"

namespace {

std::string
join_names(const std::vector<std::string> &names)
{
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i != 0)
            out += "+";
        out += names[i];
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace leakbound;
    using namespace leakbound::bench;

    auto cli = make_cli("fig_multicore",
                        "shared-L2 multicore sweep: per-level oracle "
                        "bounds vs core count and workload mix");
    cli.add_flag("max-cores",
                 "largest core count in the sweep (of 1,2,4,8)", "8");
    cli.add_flag("l2-assoc",
                 "shared-L2 associativity (16 exceeds the kernel's "
                 "8-way ceiling, exercising the mixed lane; 1 is the "
                 "stock geometry)",
                 "16");
    cli.parse(argc, argv);

    core::ExperimentConfig base;
    apply_suite_flags(base, cli);
    base.extra_edges = core::standard_extra_edges();
    base.collect_l2 = true;
    base.hierarchy.l2.associativity =
        static_cast<unsigned>(cli.get_u64("l2-assoc"));
    base.hierarchy.validate();

    const std::uint64_t max_cores = cli.get_u64("max-cores");
    const std::vector<std::uint32_t> counts = {1, 2, 4, 8};
    // Each pattern is cycled to the core count; the first three rows
    // are the homogeneous baselines, the last two shared-heavy blends.
    const std::vector<std::vector<std::string>> patterns = {
        {"stream"},
        {"stencil"},
        {"chase"},
        {"stream", "chase"},
        {"stream", "stencil", "chase", "gzip"},
    };

    util::Table sweep("multicore sweep: IPC and coherence traffic "
                      "(shared L2, store-snoop invalidation)");
    sweep.set_header({"cores", "mix", "IPC", "invalidations",
                      "inval stores", "L2 inval closes", "sim path"});
    util::Table bounds("per-level 70nm oracle bounds (L1 pooled over "
                       "all cores; L2 = shared population)");
    bounds.set_header({"cores", "mix", "L1 OPT-Drowsy", "L1 OPT-Sleep",
                       "L1 OPT-Hybrid", "L2 OPT-Drowsy", "L2 OPT-Sleep",
                       "L2 OPT-Hybrid"});

    core::GeneralizedModelInputs inputs;
    inputs.tech = power::node_params(power::TechNode::Nm70);

    for (const std::uint32_t cores : counts) {
        if (cores > max_cores)
            continue;
        for (const auto &pattern : patterns) {
            core::ExperimentConfig config = base;
            config.core_count = cores;
            config.workload_mix.clear();
            for (std::uint32_t i = 0; i < cores; ++i)
                config.workload_mix.push_back(
                    pattern[i % pattern.size()]);

            const auto begun = std::chrono::steady_clock::now();
            const multicore::MulticoreResult run = multicore::
                run_multicore(config.workload_mix.front(), config);
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - begun)
                    .count();
            const core::ExperimentResult merged =
                run.to_experiment_result();

            BenchReport::RunTiming timing;
            timing.benchmark = run.label;
            timing.wall_seconds = wall;
            timing.instructions = merged.core.instructions;
            timing.cycles = merged.core.cycles;
            timing.ipc = merged.core.ipc();
            timing.sim_path = run.sim_path_effective;
            report().runs.push_back(std::move(timing));

            const std::string mix = join_names(pattern);
            char ipc[32];
            std::snprintf(ipc, sizeof ipc, "%.3f", merged.core.ipc());
            sweep.add_row({std::to_string(cores), mix, ipc,
                           std::to_string(run.invalidations),
                           std::to_string(run.invalidating_stores),
                           std::to_string(run.l2_interval_closes),
                           run.sim_path_effective});

            std::vector<core::SavingsResult> drowsy, sleep, hybrid;
            for (const multicore::CoreOutcome &core : run.cores) {
                for (const interval::IntervalHistogramSet *set :
                     {&core.icache.intervals, &core.dcache.intervals}) {
                    const auto r =
                        core::run_generalized_model(inputs, *set);
                    drowsy.push_back(r.opt_drowsy);
                    sleep.push_back(r.opt_sleep);
                    hybrid.push_back(r.opt_hybrid);
                }
            }
            const auto l2 = core::run_generalized_model(
                inputs, run.l2cache->intervals);
            bounds.add_row(
                {std::to_string(cores), mix,
                 pct(core::combine_results(drowsy).savings),
                 pct(core::combine_results(sleep).savings),
                 pct(core::combine_results(hybrid).savings),
                 pct(l2.opt_drowsy.savings), pct(l2.opt_sleep.savings),
                 pct(l2.opt_hybrid.savings)});
        }
    }

    emit(sweep, cli, "fig_multicore_sweep");
    emit(bounds, cli, "fig_multicore_bounds");

    std::printf("\nThe shared L2's bound survives contention: every\n"
                "invalidation closes a sleep interval early, but the\n"
                "L2 is touched only on L1 misses, so its frames still\n"
                "idle almost always even with 8 cores hammering it.\n");
    return bench::finish(cli);
}
