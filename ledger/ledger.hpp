/**
 * @file
 * Shared pieces of the repository benchmark (the "layer ledger"):
 * timing helpers, the in-memory span recorder, the simulated-statistics
 * record every workload checks for exact repetition, the fig8 grid,
 * and the entry points of the three workloads and the traced ledger.
 *
 * The benchmark only calls the library's public functions; nothing in
 * src/ is instrumented.  See README.md in this directory for the
 * metric and workload definitions.
 */

#ifndef LEAKBOUND_LEDGER_LEDGER_HPP
#define LEAKBOUND_LEDGER_LEDGER_HPP

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "interval/interval_histogram.hpp"
#include "util/json.hpp"

namespace leakbound::ledger {

using Clock = std::chrono::steady_clock;

/** Seconds from @p begin to @p end. */
inline double
seconds(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** Seconds since @p begin. */
inline double
since(Clock::time_point begin)
{
    return seconds(begin, Clock::now());
}

/**
 * CLOCK_MONOTONIC in seconds (steady_clock's epoch on Linux), so run.py
 * can measure set-up time from before it spawned this process.
 */
inline double
monotonic_now()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

/** Sink that keeps a timed loop's result observable. */
inline volatile std::uint64_t g_sink = 0;

/** Store @p v where the optimizer cannot drop the work behind it. */
inline void
keep(std::uint64_t v)
{
    g_sink = v;
}

/** Linear-interpolated @p q quantile (0..1); 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

/** The median of @p values. */
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Set up, report the set-up clock, tear down, exit. */
    bool setup_only = false;
    /** Tiny sizes for the package's own smoke tests. */
    bool small = false;
    /** Directory for reports, trace files and artifact caches. */
    std::string out_dir = ".";
};

/** One recorded span (times in seconds since the recorder's epoch). */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;  ///< index of the enclosing span, -1 for roots
    std::string id;    ///< run or request identifier
};

/**
 * In-memory span recorder.  Spans are recorded from the benchmark's own
 * code around calls into each layer and written out once at the end;
 * a disabled recorder records nothing.  Thread-safe.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its index (-1 when disabled). */
    long open(const std::string &name, const std::string &id,
              long parent = -1);

    /** Close span @p index (no-op for -1). */
    void close(long index);

    /** Record an already-timed span. */
    long add(const std::string &name, const std::string &id, long parent,
             Clock::time_point begin, Clock::time_point end);

    /** Write every span as a JSON array under the writer's open key. */
    void write(util::JsonWriter &w) const;

  private:
    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span around one call. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, const std::string &id,
          long parent = -1)
        : tracer_(tracer), index_(tracer.open(name, id, parent))
    {
    }
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    long index() const { return index_; }

  private:
    Tracer &tracer_;
    long index_;
};

/**
 * The simulated statistics of one run: what must repeat exactly across
 * repetitions and across commits that only change speed.
 */
struct SimStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t l1i_accesses = 0;
    std::uint64_t l1i_misses = 0;
    std::uint64_t l1d_accesses = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t digest = 0; ///< fnv1a of serialize_result

    bool operator==(const SimStats &) const = default;
};

/** SimStats of a single-core result (digest over serialize_result). */
SimStats sim_stats(const core::ExperimentResult &result);

/** Keeps the first SimStats seen per key to compare repeats against. */
class RepeatCheck
{
  public:
    /** Record @p stats under @p key; false when it differs from the first. */
    bool record(const std::string &key, const SimStats &stats);

    /** Write every first-seen record plus a digest over all of them. */
    void write(util::JsonWriter &w) const;

  private:
    std::map<std::string, SimStats> first_;
};

/** One named metric value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one benchmark process reports. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** First few failure descriptions (report only). */
    std::vector<std::string> errors;
    /** Monotonic clock when set-up finished (trace-off runs). */
    double setup_done = 0.0;
    RepeatCheck stats;
    /** Every request latency, in ms, in completion order (report only). */
    std::vector<double> latency_ms;
    /** Extra report fields written verbatim under "details". */
    std::vector<std::pair<std::string, double>> details;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(why);
    }

    /** Count one output check; record @p why when it did not hold. */
    void
    check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok)
            fail(why);
    }

    /** Record a metric; a non-finite value is a failed check. */
    void
    metric(const std::string &name, const std::string &unit, double v)
    {
        check(std::isfinite(v), name + " is not finite");
        metrics.push_back({name, unit, std::isfinite(v) ? v : 0.0});
    }
};

/**
 * The paper's fig8 grid at 70 nm — six schemes on both L1s, energy
 * pooled over the given populations — and its mean absolute error in
 * percentage points against the five exact paper averages.
 */
struct Fig8
{
    std::vector<double> icache_avg; ///< per scheme, fraction
    std::vector<double> dcache_avg;
    double abs_err_pts = 0.0;
    std::size_t cells = 0;
};

Fig8 fig8_grid(const std::vector<const interval::IntervalHistogramSet *> &i,
               const std::vector<const interval::IntervalHistogramSet *> &d);

/**
 * Host-speed calibration.  The host's speed drifts by 20-30% over
 * seconds to minutes (other tenants), which no statistic over one run
 * can remove.  A fixed loop of the benchmark's own code — random
 * read-modify-writes over a 2 MB table plus a small 2-way LRU tag
 * array, the two shapes of the simulator's hot loop — is timed before
 * and after every timed operation.  The operation's time is reported
 * at the reference speed at which the loop takes kReferenceSeconds:
 * time × kReferenceSeconds / (mean of the two loop times around it).
 * The loop's code never changes with the program, so a faster program
 * still reads faster.
 */
class Calibration
{
  public:
    static constexpr double kReferenceSeconds = 0.007;

    Calibration();

    /** Time the loop once. */
    void sample();

    /** Scale for the operation between the last two samples. */
    double factor() const;

    /** Median loop time in seconds. */
    double median_seconds() const { return median(samples_); }

  private:
    std::vector<std::uint64_t> table_;
    std::vector<std::uint64_t> tags_;
    std::vector<double> samples_;
};

/** The stock single-core configuration every workload starts from. */
core::ExperimentConfig base_config(std::uint64_t instructions);

/** Peak resident set of this process, in MB. */
double peak_rss_mb();

// ---- the workloads (traffic.cpp, serve_load.cpp) ----

/**
 * Run one workload.  With trace off: set up, report set-up time, run
 * the traffic for opts.seconds and check every output.  With trace on:
 * run the traffic once untraced and once with spans, then time every
 * layer on inputs captured from the run (layers.cpp).
 */
Outcome run_suite_cold(const Options &opts, Tracer &tracer);
Outcome run_multicore_mix(const Options &opts, Tracer &tracer);
Outcome run_serve_mixed(const Options &opts, Tracer &tracer);

} // namespace leakbound::ledger

#endif // LEAKBOUND_LEDGER_LEDGER_HPP
