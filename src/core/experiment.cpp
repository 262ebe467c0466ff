/**
 * @file
 * Implementation of the end-to-end experiment runner.
 */

#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <utility>

#include "analytic/engine.hpp"
#include "core/artifact_cache.hpp"
#include "core/collecting_listener.hpp"
#include "core/inflection.hpp"
#include "core/policies.hpp"
#include "interval/collector.hpp"
#include "multicore/multicore.hpp"
#include "prefetch/next_line.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload/spec_suite.hpp"

namespace leakbound::core {

namespace {

/**
 * The actual enumeration behind standard_extra_edges().  Walks every
 * stock policy at every tech node, which costs ~0.3 ms — fine for a
 * bench binary's startup, fatal on a daemon's per-request decode
 * path, hence the memoized wrapper below.
 */
std::vector<Cycles>
compute_standard_extra_edges()
{
    std::vector<Cycles> edges;
    auto absorb = [&edges](const PolicyPtr &policy) {
        for (Cycles t : policy->thresholds())
            edges.push_back(t);
    };

    for (power::TechNode node : power::all_nodes()) {
        const EnergyModel model(power::node_params(node));
        const InflectionPoints points = compute_inflection(model);
        for (bool cd : {true, false}) {
            absorb(make_opt_drowsy(model, cd));
            absorb(make_opt_sleep(model, points.drowsy_sleep, cd));
            absorb(make_opt_sleep(model, 10'000, cd));
            absorb(make_decay_sleep(model, 10'000, cd));
            absorb(make_opt_hybrid(model, cd));
            absorb(make_prefetch(model, PrefetchVariant::A,
                                 {interval::PrefetchClass::NextLine,
                                  interval::PrefetchClass::Stride},
                                 cd));
            absorb(make_prefetch(model, PrefetchVariant::B,
                                 {interval::PrefetchClass::NextLine,
                                  interval::PrefetchClass::Stride},
                                 cd));
            // Fig. 7 sweep and the decay-sweep ablation.
            for (Cycles t : {points.drowsy_sleep, Cycles{1200},
                             Cycles{1500}, Cycles{2000}, Cycles{3000},
                             Cycles{4000}, Cycles{5000}, Cycles{6000},
                             Cycles{7000}, Cycles{8000}, Cycles{9000},
                             Cycles{10000}}) {
                absorb(make_hybrid(model, t, cd));
                absorb(make_opt_sleep(model, t, cd));
            }
            for (Cycles t : {Cycles{1000}, Cycles{2000}, Cycles{4000},
                             Cycles{8000}, Cycles{16000}, Cycles{32000},
                             Cycles{64000}}) {
                absorb(make_decay_sleep(model, t, cd));
            }
            // Periodic drowsy windows (policy-zoo ablation).
            for (Cycles w : {Cycles{2000}, Cycles{4000}, Cycles{32000}}) {
                absorb(make_periodic_drowsy(model, w, cd));
            }
        }
    }
    // The node x CD x sweep nesting revisits many thresholds; return
    // the canonical sorted+unique form so downstream consumers (edge
    // construction, config fingerprinting) see a stable minimal list.
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

} // namespace

const std::vector<Cycles> &
standard_extra_edges()
{
    // The edge set is a pure function of the compiled-in policy zoo;
    // enumerate once (thread-safe static init) and hand out the one
    // immutable instance (the serve daemon consults it per request).
    static const std::vector<Cycles> edges =
        compute_standard_extra_edges();
    return edges;
}

const char *
engine_name(Engine engine)
{
    switch (engine) {
      case Engine::Auto:
        return "auto";
      case Engine::Analytic:
        return "analytic";
      case Engine::Sim:
        return "sim";
    }
    LEAKBOUND_PANIC("unreachable: bad Engine");
}

std::optional<Engine>
parse_engine(const std::string &name)
{
    if (name == "auto")
        return Engine::Auto;
    if (name == "analytic")
        return Engine::Analytic;
    if (name == "sim")
        return Engine::Sim;
    return std::nullopt;
}

util::Status
ExperimentConfig::validate() const
{
    if (util::Status s = core.validate(); !s.ok())
        return s;
    if (util::Status s = hierarchy.validate(); !s.ok())
        return s;
    if (core_count == 0) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "core_count must be at least 1");
    }
    if (core_count > kMaxCoreCount) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "core_count " + std::to_string(core_count) +
                                " exceeds the maximum of " +
                                std::to_string(kMaxCoreCount));
    }
    if (!workload_mix.empty() && workload_mix.size() != core_count) {
        return util::Status(
            util::ErrorKind::InvalidArgument,
            "workload_mix has " + std::to_string(workload_mix.size()) +
                " entries but core_count is " + std::to_string(core_count));
    }
    for (const std::string &name : workload_mix) {
        if (!workload::is_benchmark(name)) {
            return util::Status(util::ErrorKind::InvalidArgument,
                                "workload_mix names unknown benchmark '" +
                                    name + "'");
        }
    }
    return util::Status();
}

namespace {

/**
 * One full experiment over an already-positioned workload.
 * @param use_analytic arm the periodic fast path (the caller has
 *        verified eligibility); the run still completes as a plain
 *        simulation when no recurrence is proven.
 */
ExperimentResult
run_one(workload::Workload &workload, const ExperimentConfig &config,
        bool use_analytic)
{
    const auto wall_start = std::chrono::steady_clock::now();

    auto edges =
        interval::IntervalHistogramSet::default_edges(config.extra_edges);

    sim::Hierarchy hierarchy(config.hierarchy);
    ExperimentResult result{
        CacheObservation(interval::IntervalHistogramSet(edges)),
        CacheObservation(interval::IntervalHistogramSet(edges))};
    result.workload = workload.name();

    interval::IntervalCollector icollector(
        hierarchy.l1i().num_frames(), &result.icache.intervals,
        config.keep_raw);
    interval::IntervalCollector dcollector(
        hierarchy.l1d().num_frames(), &result.dcache.intervals,
        config.keep_raw);
    prefetch::StridePredictor stride(config.stride);

    CollectingListener listener(config.hierarchy, &icollector, &dcollector,
                                &stride, config.nl_lead_time);

    std::unique_ptr<interval::IntervalCollector> l2collector;
    if (config.collect_l2) {
        result.l2cache.emplace(interval::IntervalHistogramSet(edges));
        l2collector = std::make_unique<interval::IntervalCollector>(
            hierarchy.l2().num_frames(), &result.l2cache->intervals,
            config.keep_raw);
        listener.set_l2_collector(l2collector.get());
    }

    cpu::InOrderCore core(config.core, &hierarchy, &workload, &listener);

    std::optional<analytic::PeriodicFastPath> fastpath;
    if (use_analytic) {
        const auto profile = analytic::analyzable_profile(
            workload, config.hierarchy, config.keep_raw);
        LEAKBOUND_ASSERT(profile.has_value(),
                         "fast path armed for an ineligible workload");
        analytic::FastPathRefs refs;
        refs.workload = &workload;
        refs.core = &core;
        refs.hierarchy = &hierarchy;
        refs.icollector = &icollector;
        refs.dcollector = &dcollector;
        refs.l2collector = l2collector.get();
        refs.imonitor = &listener.imonitor();
        refs.dmonitor = &listener.dmonitor();
        refs.stride = &stride;
        refs.isink = &result.icache.intervals;
        refs.dsink = &result.dcache.intervals;
        refs.l2sink =
            result.l2cache ? &result.l2cache->intervals : nullptr;
        fastpath.emplace(refs, config.instructions,
                         profile->period_instructions);
        // The hooked run is unbatched: the fast path's state
        // signatures need the workload never to run ahead of the core.
        const cpu::CoreRunStats s1 =
            core.run(config.instructions, fastpath->hook());
        result.core = fastpath->finish(s1);
        result.analytic = fastpath->committed();
    } else {
        result.core = core.run_with(config.instructions, listener);
    }

    icollector.finalize(result.core.cycles);
    dcollector.finalize(result.core.cycles);
    if (l2collector) {
        l2collector->finalize(result.core.cycles);
        if (config.keep_raw)
            result.l2cache->raw = l2collector->raw();
    }
    if (config.keep_raw) {
        result.icache.raw = icollector.raw();
        result.dcache.raw = dcollector.raw();
    }

    result.icache.stats = hierarchy.l1i().stats();
    result.dcache.stats = hierarchy.l1d().stats();
    result.l2 = hierarchy.l2().stats();
    if (fastpath) {
        fastpath->add_skipped(result.icache.stats, result.dcache.stats,
                              result.l2);
    }
    if (result.l2cache)
        result.l2cache->stats = result.l2;
    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();

    util::debug("experiment '", result.workload, "': ",
                result.core.instructions, " instrs, ", result.core.cycles,
                " cycles, ipc=", result.core.ipc(),
                result.analytic ? " (analytic)" : "");
    return result;
}

} // namespace

ExperimentResult
run_experiment(workload::Workload &workload, const ExperimentConfig &config)
{
    // Multicore configurations take the interleaved shared-L2 engine;
    // its N=1 output is byte-identical to the single-core path below
    // (test_multicore_equivalence), so the dispatch is purely a matter
    // of which knobs were set.
    if (config.core_count != 1 || !config.workload_mix.empty()) {
        return multicore::run_multicore_summary(workload.name(), config);
    }

    const bool use_analytic =
        config.engine != Engine::Sim &&
        analytic::is_analyzable(workload, config.hierarchy,
                                config.keep_raw);
    ExperimentResult result = run_one(workload, config, use_analytic);

#ifndef NDEBUG
    // Debug builds promote the classifier from debug-checked to
    // always-verified: every committed fast-path run is replayed as a
    // plain simulation and the serialized payloads must match byte for
    // byte.  Release builds trust the commit-time equality proof.
    if (result.analytic) {
        workload.reset();
        const ExperimentResult reference =
            run_one(workload, config, /*use_analytic=*/false);
        LEAKBOUND_ASSERT(serialize_result(result) ==
                             serialize_result(reference),
                         "analytic fast path diverged from simulation on '",
                         result.workload, "'");
    }
#endif
    return result;
}

std::vector<ExperimentResult>
SuiteOutcome::surviving() &&
{
    std::vector<ExperimentResult> results;
    results.reserve(slots.size());
    for (auto &slot : slots) {
        if (slot)
            results.push_back(std::move(*slot));
    }
    return results;
}

namespace {

/** What one isolated job attempt chain produced. */
struct JobOutcome
{
    std::optional<ExperimentResult> result;
    util::ErrorKind kind = util::ErrorKind::None;
    std::string message;
    unsigned retries = 0;
};

/** Failure kinds worth a retry (transient by nature). */
bool
retryable(util::ErrorKind kind)
{
    return kind == util::ErrorKind::IoError ||
           kind == util::ErrorKind::LockTimeout ||
           kind == util::ErrorKind::FaultInjected;
}

} // namespace

SuiteOutcome
run_suite_isolated(const std::vector<std::string> &names,
                   const ExperimentConfig &config,
                   const SuiteJobHook &before_job)
{
    const unsigned jobs =
        std::min<std::size_t>(util::ThreadPool::effective_jobs(config.jobs),
                              std::max<std::size_t>(names.size(), 1));

    SuiteOutcome outcome;
    outcome.slots.resize(names.size());

    // An unknown benchmark is a user error (fatal): it dies here, on
    // the caller's thread, before any worker spawns or the cache takes
    // an entry lock that exit() would leave behind.
    for (const std::string &name : names) {
        if (!workload::is_benchmark(name))
            (void)workload::make_benchmark(name); // fatal()s
    }

    // The artifact cache turns repeat replays of a (workload, config)
    // pair into loads; keep_raw runs bypass it because raw intervals
    // are never persisted.  The config is fingerprinted once and
    // per-benchmark keys derived from it.
    const bool use_cache = !config.cache_dir.empty() && !config.keep_raw;
    std::optional<ArtifactCache> cache;
    std::uint64_t config_fp = 0;
    if (use_cache) {
        cache.emplace(config.cache_dir);
        config_fp = fingerprint_config(config);
    }

    // A benchmark's workload is built only when its result is
    // simulated: a cache hit is a probe and a load.  The entry key is
    // derived from the name, which equals make_benchmark(name)->name().
    auto run_one = [&config, &cache, config_fp](const std::string &name) {
        auto simulate = [&name, &config] {
            workload::WorkloadPtr w = workload::make_benchmark(name);
            util::inform("simulating ", name, " (", config.instructions,
                         " instructions)");
            return run_experiment(*w, config);
        };
        if (!cache)
            return simulate();
        return cache->load_or_run(fingerprint_entry(config_fp, name), name,
                                  simulate);
    };

    // One isolated job: every failure mode funnels into a JobOutcome —
    // never an escaping exception — so the thread-pool boundary stays
    // quiet and sibling jobs are untouched.  Transient failures retry
    // through run_one, which builds a fresh workload instance on a
    // miss (the previous attempt may have half-consumed its own).
    auto attempt_job = [&run_one, &before_job,
                        &config](const std::string &name) -> JobOutcome {
        JobOutcome out;
        for (unsigned attempt = 0;; ++attempt) {
            if (!config.ignore_interrupts && util::interrupt_requested()) {
                out.kind = util::ErrorKind::Interrupted;
                out.message = "interrupted before " + name;
                out.retries = attempt;
                return out;
            }
            try {
                if (before_job)
                    before_job(name);
                if (util::fault::should_fail(util::fault::Site::Simulate,
                                             name)) {
                    throw util::StatusError(util::Status(
                        util::ErrorKind::FaultInjected,
                        "injected simulation fault: " + name));
                }
                out.result = run_one(name);
                out.retries = attempt;
                return out;
            } catch (const util::StatusError &e) {
                out.kind = e.status().kind();
                out.message = e.status().message();
            } catch (const std::exception &e) {
                out.kind = util::ErrorKind::Internal;
                out.message = e.what();
            }
            if (!retryable(out.kind) || attempt >= kMaxJobRetries) {
                out.retries = attempt;
                return out;
            }
            util::warn("suite job '", name, "' failed (", out.message,
                       "); retry ", attempt + 1, "/", kMaxJobRetries);
        }
    };

    std::vector<JobOutcome> job_outcomes(names.size());
    if (jobs <= 1) {
        for (std::size_t i = 0; i < names.size(); ++i)
            job_outcomes[i] = attempt_job(names[i]);
    } else {
        // Collecting futures in submission order makes the merge
        // deterministic: the output is bit-identical to the serial
        // loop for any jobs value.  Cache probes run inside the
        // workers too — distinct benchmarks map to distinct entries,
        // so the per-entry lock files never contend within one suite.
        util::inform("running ", names.size(), " benchmarks on ", jobs,
                     " threads (", config.instructions,
                     " instructions each)");
        util::ThreadPool pool(jobs);
        std::vector<std::future<JobOutcome>> futures;
        futures.reserve(names.size());
        for (const std::string &name : names) {
            futures.push_back(
                pool.submit([&attempt_job, &name] {
                    return attempt_job(name);
                }));
        }
        for (std::size_t i = 0; i < futures.size(); ++i)
            job_outcomes[i] = futures[i].get();
    }

    for (std::size_t i = 0; i < names.size(); ++i) {
        JobOutcome &out = job_outcomes[i];
        if (out.result) {
            outcome.slots[i] = std::move(out.result);
            continue;
        }
        if (out.kind == util::ErrorKind::Interrupted)
            outcome.interrupted = true;
        outcome.failures.push_back(SuiteJobFailure{
            i, names[i], out.kind, std::move(out.message), out.retries});
    }
    if (!config.ignore_interrupts && util::interrupt_requested())
        outcome.interrupted = true;
    if (cache)
        outcome.cache = cache->health();
    return outcome;
}

std::vector<ExperimentResult>
run_suite(const std::vector<std::string> &names,
          const ExperimentConfig &config)
{
    SuiteOutcome outcome = run_suite_isolated(names, config);
    if (!outcome.failures.empty()) {
        const SuiteJobFailure &first = outcome.failures.front();
        throw util::StatusError(util::Status(
            first.kind,
            "suite job '" + first.workload + "' failed: " + first.message));
    }
    return std::move(outcome).surviving();
}

} // namespace leakbound::core
