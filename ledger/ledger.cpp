/**
 * @file
 * Shared helpers of the benchmark (see ledger.hpp).
 */

#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "core/artifact_cache.hpp"
#include "core/energy_model.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "power/technology.hpp"
#include "util/fingerprint.hpp"

namespace leakbound::ledger {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

long
Tracer::open(const std::string &name, const std::string &id, long parent)
{
    if (!enabled_)
        return -1;
    const double now = seconds(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, id});
    return static_cast<long>(spans_.size() - 1);
}

void
Tracer::close(long index)
{
    if (index < 0)
        return;
    const double now = seconds(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = now;
}

long
Tracer::add(const std::string &name, const std::string &id, long parent,
            Clock::time_point begin, Clock::time_point end)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        {name, seconds(epoch_, begin), seconds(epoch_, end), parent, id});
    return static_cast<long>(spans_.size() - 1);
}

void
Tracer::write(util::JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    w.begin_array();
    for (const Span &s : spans_) {
        w.begin_object();
        w.key("name").value(s.name);
        w.key("id").value(s.id);
        w.key("start_s").value(s.start);
        w.key("end_s").value(s.end);
        w.key("parent").value(static_cast<std::int64_t>(s.parent));
        w.end_object();
    }
    w.end_array();
}

SimStats
sim_stats(const core::ExperimentResult &result)
{
    SimStats s;
    s.instructions = result.core.instructions;
    s.cycles = result.core.cycles;
    s.l1i_accesses = result.icache.stats.accesses;
    s.l1i_misses = result.icache.stats.misses;
    s.l1d_accesses = result.dcache.stats.accesses;
    s.l1d_misses = result.dcache.stats.misses;
    s.l2_accesses = result.l2.accesses;
    s.l2_misses = result.l2.misses;
    const std::string bytes = core::serialize_result(result);
    s.digest = util::fnv1a(bytes.data(), bytes.size());
    return s;
}

bool
RepeatCheck::record(const std::string &key, const SimStats &stats)
{
    auto [it, fresh] = first_.emplace(key, stats);
    return fresh || it->second == stats;
}

void
RepeatCheck::write(util::JsonWriter &w) const
{
    std::uint64_t all = 0;
    w.begin_object();
    for (const auto &[key, s] : first_) {
        w.key(key).begin_object();
        w.key("instructions").value(s.instructions);
        w.key("cycles").value(s.cycles);
        w.key("l1i_accesses").value(s.l1i_accesses);
        w.key("l1i_misses").value(s.l1i_misses);
        w.key("l1d_accesses").value(s.l1d_accesses);
        w.key("l1d_misses").value(s.l1d_misses);
        w.key("l2_accesses").value(s.l2_accesses);
        w.key("l2_misses").value(s.l2_misses);
        w.key("invalidations").value(s.invalidations);
        w.key("digest").value(util::hex64(s.digest));
        w.end_object();
        const std::uint64_t fields[] = {
            s.instructions, s.cycles,      s.l1i_accesses, s.l1i_misses,
            s.l1d_accesses, s.l1d_misses,  s.l2_accesses,  s.l2_misses,
            s.invalidations, s.digest};
        all ^= util::fnv1a(key.data(), key.size()) +
               util::fnv1a(fields, sizeof fields);
    }
    w.key("all_digest").value(util::hex64(all));
    w.end_object();
}

Fig8
fig8_grid(const std::vector<const interval::IntervalHistogramSet *> &ipop,
          const std::vector<const interval::IntervalHistogramSet *> &dpop)
{
    // The six schemes of bench/fig8_schemes.cpp, at 70 nm.
    const core::EnergyModel model(power::node_params(power::TechNode::Nm70));
    using interval::PrefetchClass;
    const std::vector<PrefetchClass> icls = {PrefetchClass::NextLine};
    const std::vector<PrefetchClass> dcls = {PrefetchClass::NextLine,
                                             PrefetchClass::Stride};
    Fig8 fig;
    for (bool icache : {true, false}) {
        const auto &cls = icache ? icls : dcls;
        std::vector<core::PolicyPtr> owned;
        owned.push_back(core::make_opt_drowsy(model));
        owned.push_back(core::make_decay_sleep(model, 10'000));
        owned.push_back(core::make_opt_sleep(model, 10'000));
        owned.push_back(core::make_opt_hybrid(model));
        owned.push_back(
            core::make_prefetch(model, core::PrefetchVariant::A, cls));
        owned.push_back(
            core::make_prefetch(model, core::PrefetchVariant::B, cls));
        std::vector<const core::Policy *> policies;
        for (const auto &p : owned)
            policies.push_back(p.get());
        const auto &sets = icache ? ipop : dpop;
        const auto flat = core::evaluate_policy_grid(policies, sets, 1);
        fig.cells += flat.size();
        auto &avg = icache ? fig.icache_avg : fig.dcache_avg;
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const std::vector<core::SavingsResult> row(
                flat.begin() + static_cast<std::ptrdiff_t>(p * sets.size()),
                flat.begin() +
                    static_cast<std::ptrdiff_t>((p + 1) * sets.size()));
            avg.push_back(core::combine_results(row).savings);
        }
    }
    // The five averages fig8_schemes prints without "~": I-cache
    // OPT-Drowsy and OPT-Hybrid, D-cache OPT-Drowsy, OPT-Hybrid and
    // Prefetch-B.
    const double err = std::abs(fig.icache_avg[0] * 100.0 - 66.4) +
                       std::abs(fig.icache_avg[3] * 100.0 - 96.4) +
                       std::abs(fig.dcache_avg[0] * 100.0 - 66.1) +
                       std::abs(fig.dcache_avg[3] * 100.0 - 99.1) +
                       std::abs(fig.dcache_avg[5] * 100.0 - 92.4);
    fig.abs_err_pts = err / 5.0;
    return fig;
}

Calibration::Calibration()
    : table_(std::size_t{1} << 18),
      tags_(std::size_t{1} << 13, ~std::uint64_t{0})
{
    for (std::size_t i = 0; i < table_.size(); ++i)
        table_[i] = i * 0x9e3779b97f4a7c15ULL;
}

void
Calibration::sample()
{
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    std::uint64_t acc = 0;
    const auto begin = Clock::now();

    // Memory half: random read-modify-writes over a 2 MB table, like the
    // simulator's L2 tags and interval frames.
    const std::uint64_t mask = table_.size() - 1;
    for (int i = 0; i < 60'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t at = (x >> 40) & mask;
        table_[at] += x;
        acc ^= table_[(at * 7) & mask];
        if (acc & 1)
            x ^= acc;
    }

    // Branch half: a small 2-way LRU tag array driven by a
    // half-sequential, half-random block stream, like the simulator's
    // L1 lookups and their data-dependent branches.
    const std::uint64_t sets = tags_.size() / 2;
    std::uint64_t addr = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        if ((x >> 61) < 5)
            addr += 64;
        else
            addr = (x >> 20) & ((std::uint64_t{1} << 24) - 1);
        const std::uint64_t block = addr >> 6;
        const std::uint64_t base = (block & (sets - 1)) * 2;
        if (tags_[base] == block) {
            ++acc;
        } else if (tags_[base + 1] == block) {
            std::swap(tags_[base], tags_[base + 1]);
            ++acc;
        } else {
            tags_[base + 1] = tags_[base];
            tags_[base] = block;
        }
    }
    samples_.push_back(since(begin));
    keep(acc);
}

double
Calibration::factor() const
{
    if (samples_.size() < 2)
        return 1.0;
    const double around =
        (samples_[samples_.size() - 2] + samples_.back()) / 2.0;
    return kReferenceSeconds / around;
}

core::ExperimentConfig
base_config(std::uint64_t instructions)
{
    core::ExperimentConfig config;
    config.instructions = instructions;
    config.extra_edges = core::standard_extra_edges();
    config.engine = core::Engine::Auto;
    config.jobs = 1;
    return config;
}

double
peak_rss_mb()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace leakbound::ledger
