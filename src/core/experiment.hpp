/**
 * @file
 * End-to-end experiment runner: executes a workload on the timing core
 * over the Alpha-like hierarchy, collecting the instruction- and
 * data-cache interval populations (with prefetchability annotations)
 * that every bench evaluates policies against.
 */

#ifndef LEAKBOUND_CORE_EXPERIMENT_HPP
#define LEAKBOUND_CORE_EXPERIMENT_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cache_health.hpp"
#include "cpu/inorder_core.hpp"
#include "interval/interval_histogram.hpp"
#include "prefetch/stride.hpp"
#include "sim/hierarchy.hpp"
#include "util/status.hpp"
#include "workload/workload.hpp"

namespace leakbound::core {

/**
 * Which execution engine a run uses.  Auto routes each workload
 * through the analyzability classifier (src/analytic): eligible
 * workloads take the exact periodic fast path, everything else
 * simulates.  Analytic requests the fast path explicitly but still
 * falls back to simulation when the workload is ineligible or never
 * recurs — the fallback is silent and the results are byte-identical
 * either way, so no engine choice can change an exit code.  Sim forces
 * plain simulation.
 */
enum class Engine : std::uint8_t { Auto, Analytic, Sim };

/** Canonical lowercase name of @p engine ("auto", "analytic", "sim"). */
const char *engine_name(Engine engine);

/** Parse an engine name; nullopt on anything unrecognized. */
std::optional<Engine> parse_engine(const std::string &name);

/**
 * Widest multicore configuration accepted anywhere (config validation,
 * request decode): one core per bit of the sharer bitmask the
 * invalidation directory packs into a 64-bit word.
 */
inline constexpr std::uint32_t kMaxCoreCount = 64;

/** Knobs of one simulation run. */
struct ExperimentConfig
{
    /** Dynamic instructions to execute per benchmark. */
    std::uint64_t instructions = 8'000'000;
    /** Memory system (defaults to the paper's Alpha-like hierarchy). */
    sim::HierarchyConfig hierarchy;
    /** Core shape (defaults to 4-wide). */
    cpu::CoreConfig core;
    /** Stride predictor shape (defaults to a 4K-entry table). */
    prefetch::StrideConfig stride;
    /**
     * Extra histogram edges beyond the defaults; pass every decision
     * threshold of every policy you will evaluate (or use
     * standard_extra_edges(), which covers all stock experiments).
     */
    std::vector<Cycles> extra_edges;
    /** Also retain raw intervals (memory-heavy; tests only). */
    bool keep_raw = false;
    /**
     * Timeliness requirement for next-line coverage: the trigger
     * access must precede the covered access by this many cycles.
     * 0 reproduces the paper's accounting.
     */
    Cycles nl_lead_time = 0;
    /**
     * Also collect the unified L2's interval population (the paper
     * studies the L1s; the L2 is the chip's biggest leaker and the
     * extension bench applies the same bound to it).  Costs one more
     * collector over 32K frames.
     */
    bool collect_l2 = false;
    /**
     * Worker threads run_suite() spreads the benchmarks over; 0 means
     * hardware_concurrency, 1 forces the serial path.  Each benchmark
     * simulates into its own private IntervalHistogramSet and results
     * are merged back in suite order, so the output is bit-identical
     * for every jobs value.
     */
    unsigned jobs = 1;
    /**
     * Directory of the persistent artifact cache (see
     * core/artifact_cache.hpp); empty disables caching.  When set,
     * run_suite() loads previously simulated (workload, config)
     * results instead of replaying them — loaded results are
     * byte-identical to fresh simulation.  keep_raw runs always bypass
     * the cache (raw intervals are memory-only and never persisted).
     */
    std::string cache_dir;
    /**
     * Do not cut this suite short on SIGINT/SIGTERM.  Batch binaries
     * want the default (stop dispatching, flush a partial report); the
     * serve daemon wants the opposite during drain — an admitted
     * request runs to completion so its waiting clients get real
     * results, and only *queued* requests are failed.  Excluded from
     * config fingerprints: it never changes what a completed
     * simulation produces.
     */
    bool ignore_interrupts = false;
    /**
     * Execution engine (see Engine).  Although analytic and simulated
     * results are byte-identical by construction, the engine *is*
     * fingerprinted into artifact-cache keys so entries produced by
     * different engines never alias — a fast-path bug can then never
     * poison the simulated cache population (and vice versa).
     */
    Engine engine = Engine::Auto;
    /**
     * Number of in-order cores sharing the L2 (src/multicore).  1 runs
     * the classic single-core engine; anything else (or a non-empty
     * workload_mix) routes through the multicore interleaver, whose
     * N=1 output is byte-identical to the single-core engine anyway.
     */
    std::uint32_t core_count = 1;
    /**
     * Per-core benchmark names for heterogeneous multicore mixes.
     * Empty means homogeneous: every core runs the requested
     * benchmark.  Non-empty requires size() == core_count, and then
     * core i runs workload_mix[i] regardless of the requested name.
     */
    std::vector<std::string> workload_mix;

    /**
     * Validation of the nested core and hierarchy configs plus the
     * cross-field multicore knobs (core_count, workload_mix).  Typed
     * errors, never fatal(): InvalidArgument on a bad core or cache
     * geometry, core_count = 0 / > kMaxCoreCount, a mix whose length
     * differs from core_count, or a mix naming an unknown benchmark.
     */
    util::Status validate() const;
};

/** What one cache yielded. */
struct CacheObservation
{
    interval::IntervalHistogramSet intervals;
    std::vector<interval::Interval> raw; ///< empty unless keep_raw
    sim::CacheStats stats;

    explicit CacheObservation(interval::IntervalHistogramSet set)
        : intervals(std::move(set))
    {
    }
};

/**
 * A result's serialize_result bytes with their FNV-1a checksum, as the
 * artifact cache verified them on a load or wrote them on a store.
 */
struct SerializedResult
{
    std::string bytes;
    std::uint64_t fnv = 0; ///< util::fnv1a of bytes
};

/** Everything one run produced. */
struct ExperimentResult
{
    std::string workload;
    cpu::CoreRunStats core;
    CacheObservation icache;
    CacheObservation dcache;
    /** Populated only when ExperimentConfig::collect_l2 was set. */
    std::optional<CacheObservation> l2cache;
    sim::CacheStats l2;
    /**
     * Wall-clock time the simulation took, in seconds (reporting only;
     * never feeds back into simulated results).  For a cache-loaded
     * result this is the load time, not the original replay time.
     */
    double wall_seconds = 0.0;
    /**
     * Whether this result was loaded from the artifact cache instead
     * of simulated (reporting only; the contents are byte-identical
     * either way).
     */
    bool from_cache = false;
    /**
     * Whether the analytic fast path actually committed a period skip
     * for this run (reporting only, like from_cache; excluded from
     * serialize_result because the contents are byte-identical to a
     * plain simulation).  False for fallback runs even under
     * Engine::Analytic.
     */
    bool analytic = false;
    /**
     * The exact serialize_result bytes, and their checksum, that the
     * artifact cache verified when it loaded this result or wrote when
     * it stored it; null when no cache held them.  A renderer prints
     * the checksum and hex-encodes the bytes instead of re-serializing
     * and re-hashing.  Shared, so copying a result stays cheap.
     */
    std::shared_ptr<const SerializedResult> serialized;

    ExperimentResult(CacheObservation ic, CacheObservation dc)
        : icache(std::move(ic)), dcache(std::move(dc))
    {
    }
};

/**
 * Thresholds of every policy any stock bench evaluates, across all
 * four paper technology nodes, the Fig. 7 sweep, the 10K decay point
 * and the decay-sweep ablation.  Union them into
 * ExperimentConfig::extra_edges so one simulation serves them all.
 * Returns a reference to the memoized list (enumerated once per
 * process); copy it only when you need to mutate.
 */
const std::vector<Cycles> &standard_extra_edges();

/** Run @p workload under @p config and collect both caches. */
ExperimentResult run_experiment(workload::Workload &workload,
                                const ExperimentConfig &config);

/** How one suite job died (one entry per failed (workload) job). */
struct SuiteJobFailure
{
    /** Index of the job in the caller's names order. */
    std::size_t index = 0;
    /** The benchmark the job was running. */
    std::string workload;
    /** Error taxonomy bucket (io_error, fault_injected, internal...). */
    util::ErrorKind kind = util::ErrorKind::Internal;
    /** Human-readable detail. */
    std::string message;
    /** Retries burned before giving up (0 = failed on first try). */
    unsigned retries = 0;
};

/** Everything a fault-isolated suite run produced. */
struct SuiteOutcome
{
    /**
     * One slot per requested benchmark, in names order; nullopt where
     * that job failed.  Surviving slots are byte-identical to what a
     * fault-free run produces (failures never contaminate siblings).
     */
    std::vector<std::optional<ExperimentResult>> slots;
    /** One entry per empty slot, in names order. */
    std::vector<SuiteJobFailure> failures;
    /** Artifact-cache trouble encountered during this run. */
    CacheHealth cache;
    /** Whether SIGINT/SIGTERM cut the run short. */
    bool interrupted = false;

    /** The non-failed results in names order (consumes the slots). */
    std::vector<ExperimentResult> surviving() &&;
};

/**
 * Test/instrumentation seam: called on the worker thread right before
 * each job probes the cache or simulates, with the benchmark name.  A throwing hook makes
 * that job fail exactly like a mid-simulation fault, which is how the
 * isolation tests exercise the failure path in every build (the fault
 * injector only exists in chaos builds).
 */
using SuiteJobHook = std::function<void(const std::string &)>;

/** Retries a failed suite job gets when its error kind is transient. */
inline constexpr unsigned kMaxJobRetries = 2;

/**
 * Fault-isolated run_suite: one job failing (exception, injected
 * fault, interrupt) is recorded in the outcome instead of killing the
 * run, and every sibling job still completes and lands in its slot.
 * Transient failures (io_error, lock_timeout, fault_injected) retry up
 * to kMaxJobRetries times before being recorded.  After SIGINT or
 * SIGTERM no new job starts; jobs not yet dispatched are recorded as
 * `interrupted` failures and the outcome is flagged.
 */
SuiteOutcome
run_suite_isolated(const std::vector<std::string> &names,
                   const ExperimentConfig &config,
                   const SuiteJobHook &before_job = {});

/**
 * Run a list of benchmarks from the suite (workload::make_benchmark).
 *
 * With config.jobs != 1 the benchmarks run concurrently on a
 * util::ThreadPool — each into its own collector set — and the result
 * vector is assembled in @p names order, so callers observe exactly
 * the serial output regardless of the worker count.
 *
 * All-or-nothing wrapper over run_suite_isolated(): the first job
 * failure is rethrown as util::StatusError.  Callers that want partial
 * results use run_suite_isolated() directly.
 */
std::vector<ExperimentResult>
run_suite(const std::vector<std::string> &names,
          const ExperimentConfig &config);

} // namespace leakbound::core

#endif // LEAKBOUND_CORE_EXPERIMENT_HPP
