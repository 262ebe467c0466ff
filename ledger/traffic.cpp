/**
 * @file
 * The two batch workloads, suite_cold and multicore_mix, untraced and
 * traced.  A "request" of a batch workload is one pass: the six paper
 * benchmarks plus the fig8 grid, or the two multicore mixes back to
 * back — what one figure run waits for.
 */

#include <algorithm>
#include <exception>

#include "layers.hpp"
#include "multicore/multicore.hpp"
#include "serve_load.hpp"
#include "util/random.hpp"
#include "workload/spec_suite.hpp"

namespace leakbound::ledger {

namespace {

/** Instructions per suite_cold benchmark. */
std::uint64_t
suite_instructions(const Options &opts)
{
    return opts.small ? 100'000 : 4'000'000;
}

/** Instructions per core of multicore_mix. */
std::uint64_t
multicore_instructions(const Options &opts)
{
    return opts.small ? 50'000 : 2'000'000;
}

/** Passes every untraced run makes at least (so repeats get checked). */
constexpr int kMinPasses = 2;

/**
 * The end-to-end metrics of a batch run.  Samples are already at the
 * calibrated reference speed: @p each holds every benchmark's or mix's
 * run times, @p pass_s every pass's wall time.
 */
void
report_batch(const std::vector<std::vector<double>> &each,
             std::uint64_t instructions, const std::vector<double> &pass_s,
             const std::vector<double> &raw_pass_s, const Calibration &cal,
             Outcome &out)
{
    double run_s = 0.0;
    for (const auto &samples : each)
        run_s += median(samples);
    double total_s = 0.0;
    for (double s : pass_s) {
        out.latency_ms.push_back(s * 1e3);
        total_s += s;
    }
    double raw_s = 0.0;
    for (double s : raw_pass_s)
        raw_s += s;
    out.metric("host_ns_per_instr", "ns",
               run_s * 1e9 / static_cast<double>(instructions));
    out.metric("req_per_s", "1/s",
               static_cast<double>(pass_s.size()) / total_s);
    out.metric("latency_p50_ms", "ms", quantile(out.latency_ms, 0.50));
    out.metric("latency_p99_ms", "ms", quantile(out.latency_ms, 0.99));
    out.metric("peak_rss_mb", "MB", peak_rss_mb());
    out.details.push_back({"latency_samples",
                           static_cast<double>(pass_s.size())});
    out.details.push_back({"raw.req_per_s",
                           static_cast<double>(pass_s.size()) / raw_s});
    out.details.push_back({"raw.latency_p50_ms",
                           median(raw_pass_s) * 1e3});
    out.details.push_back({"calibration.median_s", cal.median_seconds()});
}

// ---- suite_cold ----

/** One suite pass: six cold runs, then the fig8 grid over them. */
struct SuitePass
{
    double wall_s = 0.0;     ///< runs + grid, calibrated when asked
    double raw_wall_s = 0.0; ///< the same, as measured
    double run_s = 0.0;      ///< run_experiment calls only, as measured
    std::vector<double> run_each_s; ///< per benchmark, suite order
    std::uint64_t instructions = 0;
    std::vector<core::ExperimentResult> results;
    Fig8 fig;
};

class SuiteCold
{
  public:
    explicit SuiteCold(const Options &opts) : opts_(opts) {}

    /** Edge memo and workload construction. */
    void
    setup()
    {
        config_ = base_config(suite_instructions(opts_));
        for (const std::string &name : workload::suite_names())
            workloads_.push_back(workload::make_benchmark(name, opts_.seed));
    }

    const core::ExperimentConfig &config() const { return config_; }

    /**
     * One pass.  With @p cal, the loop is sampled after every run and
     * each run is scaled to the reference speed by the two samples
     * around it.
     */
    SuitePass
    pass(Outcome &out, Tracer &tracer, Calibration *cal = nullptr)
    {
        SuitePass p;
        Scope top(tracer, "suite.pass", "pass");
        double f = 1.0;
        for (auto &w : workloads_) {
            ++out.attempted;
            Scope s(tracer, "core.run_experiment", w->name(), top.index());
            try {
                w->reset();
                const auto t0 = Clock::now();
                core::ExperimentResult r = core::run_experiment(*w, config_);
                const double raw = since(t0);
                if (cal) {
                    cal->sample();
                    f = cal->factor();
                }
                p.run_s += raw;
                p.raw_wall_s += raw;
                p.run_each_s.push_back(raw * f);
                p.wall_s += raw * f;
                p.instructions += r.core.instructions;
                out.check(out.stats.record(r.workload, sim_stats(r)),
                          r.workload + ": simulated statistics differ from "
                                       "the first repetition");
                p.results.push_back(std::move(r));
            } catch (const std::exception &e) {
                out.fail(w->name() + ": " + e.what());
            }
        }
        {
            Scope s(tracer, "core.fig8_grid", "grid", top.index());
            const auto t0 = Clock::now();
            std::vector<const interval::IntervalHistogramSet *> ip, dp;
            for (const auto &r : p.results) {
                ip.push_back(&r.icache.intervals);
                dp.push_back(&r.dcache.intervals);
            }
            p.fig = fig8_grid(ip, dp);
            if (!first_fig_) {
                first_fig_ = true;
                fig_ = p.fig;
            }
            out.check(p.fig.icache_avg == fig_.icache_avg &&
                          p.fig.dcache_avg == fig_.dcache_avg,
                      "fig8 averages differ from the first repetition");
            p.raw_wall_s += since(t0);
            p.wall_s += since(t0) * f;
        }
        return p;
    }

  private:
    Options opts_;
    core::ExperimentConfig config_;
    std::vector<workload::WorkloadPtr> workloads_;
    bool first_fig_ = false;
    Fig8 fig_;
};

// ---- multicore_mix ----

struct MixPass
{
    double wall_s = 0.0;     ///< calibrated when asked
    double raw_wall_s = 0.0; ///< as measured
    std::vector<double> run_each_s; ///< per mix
    std::uint64_t instructions = 0;
    std::vector<multicore::MulticoreResult> results;
};

class MulticoreMix
{
  public:
    explicit MulticoreMix(const Options &opts) : opts_(opts) {}

    /**
     * Edge memo and the two mix configurations.  The seed permutes the
     * heterogeneous mix's core order; run_multicore builds each core's
     * workload from its name with the fixed in-program seed.
     */
    void
    setup()
    {
        (void)core::standard_extra_edges();
        std::vector<std::string> hetero = hetero_mix();
        util::Rng rng(opts_.seed);
        for (std::size_t i = hetero.size(); i > 1; --i)
            std::swap(hetero[i - 1], hetero[rng.next_below(i)]);
        mixes_ = {hetero, std::vector<std::string>(4, "vortex")};
    }

    const std::vector<std::vector<std::string>> &mixes() const
    {
        return mixes_;
    }

    /** One pass; @p cal as in SuiteCold::pass, per mix. */
    MixPass
    pass(Outcome &out, Tracer &tracer, Calibration *cal = nullptr)
    {
        MixPass p;
        Scope top(tracer, "multicore.pass", "pass");
        for (const auto &mix : mixes_) {
            ++out.attempted;
            const std::string label = multicore::mix_label(mix);
            Scope s(tracer, "multicore.run_multicore", label, top.index());
            try {
                const auto t0 = Clock::now();
                multicore::MulticoreResult r = multicore::run_multicore(
                    mix.front(),
                    multicore_config(mix, multicore_instructions(opts_)));
                const double raw = since(t0);
                double f = 1.0;
                if (cal) {
                    cal->sample();
                    f = cal->factor();
                }
                p.raw_wall_s += raw;
                p.run_each_s.push_back(raw * f);
                p.wall_s += raw * f;
                SimStats st = sim_stats(r.to_experiment_result());
                st.invalidations = r.invalidations;
                out.check(out.stats.record(label, st),
                          label + ": simulated statistics differ from the "
                                  "first repetition");
                for (const auto &c : r.cores)
                    p.instructions += c.stats.instructions;
                p.results.push_back(std::move(r));
            } catch (const std::exception &e) {
                out.fail(label + ": " + e.what());
            }
        }
        return p;
    }

  private:
    Options opts_;
    std::vector<std::vector<std::string>> mixes_;
};

Fig8
mix_fig8(const MixPass &p)
{
    std::vector<const interval::IntervalHistogramSet *> ip, dp;
    for (const auto &r : p.results) {
        for (const auto &c : r.cores) {
            ip.push_back(&c.icache.intervals);
            dp.push_back(&c.dcache.intervals);
        }
    }
    return fig8_grid(ip, dp);
}

/** Per-instruction host cost of a pass, in ns. */
template <typename P>
double
ns_per_instr(const P &p, double s)
{
    return p.instructions ? s * 1e9 / static_cast<double>(p.instructions)
                          : 0.0;
}

} // namespace

Outcome
run_suite_cold(const Options &opts, Tracer &tracer)
{
    Outcome out;
    SuiteCold suite(opts);
    suite.setup();
    out.setup_done = monotonic_now();
    if (opts.setup_only)
        return out;

    if (!opts.trace) {
        // host_ns_per_instr sums each benchmark's median run time, so a
        // slow stretch of the host inflates single runs, not the pass.
        std::vector<double> pass_s, raw_pass_s;
        std::vector<std::vector<double>> each(workload::suite_names().size());
        std::uint64_t instructions = 0;
        Fig8 fig;
        Calibration cal;
        cal.sample();
        const auto begin = Clock::now();
        while (static_cast<int>(pass_s.size()) < kMinPasses ||
               since(begin) < opts.seconds) {
            SuitePass p = suite.pass(out, tracer, &cal);
            raw_pass_s.push_back(p.raw_wall_s);
            pass_s.push_back(p.wall_s);
            for (std::size_t b = 0; b < p.run_each_s.size(); ++b)
                each[b].push_back(p.run_each_s[b]);
            instructions = p.instructions;
            fig = p.fig;
        }
        report_batch(each, instructions, pass_s, raw_pass_s, cal, out);
        out.metric("fig8_abs_err_pts", "pts", fig.abs_err_pts);
        return out;
    }

    Tracer off(false);
    const SuitePass untraced = suite.pass(out, off);
    const SuitePass traced = suite.pass(out, tracer);
    const double base = ns_per_instr(untraced, untraced.run_s);
    out.metric("trace.overhead_pct", "%",
               (ns_per_instr(traced, traced.run_s) - base) / base * 100.0);

    LayerTotals totals;
    std::vector<core::ExperimentResult> results;
    for (const std::string &name : workload::suite_names()) {
        results.push_back(capture_and_replay({name, opts.seed},
                                             suite.config(), totals, out,
                                             tracer));
    }
    report_single_core_layers(totals, out);
    std::vector<const core::ExperimentResult *> ptrs;
    for (const auto &r : results)
        ptrs.push_back(&r);
    report_core_layer(ptrs, opts.out_dir, out, tracer);
    report_multicore_probe(opts, out, tracer);
    report_serve_layer(serve_spec(opts, true), opts, out, tracer);
    return out;
}

Outcome
run_multicore_mix(const Options &opts, Tracer &tracer)
{
    Outcome out;
    MulticoreMix mc(opts);
    mc.setup();
    out.setup_done = monotonic_now();
    if (opts.setup_only)
        return out;

    if (!opts.trace) {
        std::vector<double> pass_s, raw_pass_s;
        std::vector<std::vector<double>> each(mc.mixes().size());
        std::uint64_t instructions = 0;
        Fig8 fig;
        Calibration cal;
        cal.sample();
        const auto begin = Clock::now();
        while (static_cast<int>(pass_s.size()) < kMinPasses ||
               since(begin) < opts.seconds) {
            MixPass p = mc.pass(out, tracer, &cal);
            raw_pass_s.push_back(p.raw_wall_s);
            pass_s.push_back(p.wall_s);
            for (std::size_t m = 0; m < p.run_each_s.size(); ++m)
                each[m].push_back(p.run_each_s[m]);
            instructions = p.instructions;
            if (pass_s.size() == 1)
                fig = mix_fig8(p);
        }
        report_batch(each, instructions, pass_s, raw_pass_s, cal, out);
        out.metric("fig8_abs_err_pts", "pts", fig.abs_err_pts);
        return out;
    }

    Tracer off(false);
    const MixPass untraced = mc.pass(out, off);
    const MixPass traced = mc.pass(out, tracer);
    const double base = ns_per_instr(untraced, untraced.wall_s);
    out.metric("trace.overhead_pct", "%",
               (ns_per_instr(traced, traced.wall_s) - base) / base * 100.0);

    // Each distinct core workload captured solo at the per-core budget:
    // the single-core layers, and the shares run_multicore is reduced by.
    LayerTotals solo;
    const std::uint64_t n = multicore_instructions(opts);
    const core::ExperimentConfig config = base_config(n);
    for (const std::string &name : hetero_mix())
        capture_and_replay({name, 0}, config, solo, out, tracer);
    report_single_core_layers(solo, out);
    std::vector<core::ExperimentResult> summaries;
    for (const auto &r : traced.results)
        summaries.push_back(r.to_experiment_result());
    std::vector<const core::ExperimentResult *> ptrs;
    for (const auto &r : summaries)
        ptrs.push_back(&r);
    report_core_layer(ptrs, opts.out_dir, out, tracer);
    report_multicore_layer(mc.mixes(), n, solo, out, tracer);
    report_serve_layer(serve_spec(opts, true), opts, out, tracer);
    return out;
}

} // namespace leakbound::ledger
