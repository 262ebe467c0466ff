/**
 * @file
 * The traced ledger (see layers.hpp).  Captured streams live only for
 * one benchmark at a time: a 4M-instruction run has about 2.3M L1
 * accesses, ~90 MB of capture records.
 */

#include "layers.hpp"

#include <filesystem>

#include "analytic/engine.hpp"
#include "core/artifact_cache.hpp"
#include "core/collecting_listener.hpp"
#include "multicore/multicore.hpp"
#include "workload/spec_suite.hpp"

namespace leakbound::ledger {

namespace {

/** Flags of one captured L1 access. */
enum : std::uint8_t {
    kData = 1,
    kL1Hit = 2,
    kStride = 4,
    kNextLine = 8,
};

/** One L1 access as the core issued it, with its outcome. */
struct Access
{
    Addr addr = 0; ///< fetch-group pc for instruction accesses
    Cycle cycle = 0;
    Pc pc = 0;
    FrameId l1_frame = 0;
    std::uint8_t flags = 0;
};

/**
 * Records every access, then forwards it to the real
 * core::CollectingListener.  The stride and next-line outcomes are
 * recomputed on private predictor instances with the listener's own
 * rules (the listener does not expose them); the replay-fidelity check
 * proves they match, because histograms rebuilt from these flags must
 * serialize byte-identically to run_experiment's.
 */
class CaptureListener final : public cpu::AccessListener
{
  public:
    CaptureListener(const core::ExperimentConfig &config,
                    interval::IntervalCollector *icollector,
                    interval::IntervalCollector *dcollector,
                    core::CollectingListener *inner,
                    std::vector<Access> *out)
        : iline_shift_(config.hierarchy.l1i.line_shift()),
          dline_shift_(config.hierarchy.l1d.line_shift()),
          dline_(config.hierarchy.l1d.line_bytes),
          lead_(config.nl_lead_time), stride_(config.stride),
          icollector_(icollector), dcollector_(dcollector), inner_(inner),
          out_(out)
    {
    }

    void
    on_instr_access(Cycle cycle, Pc pc,
                    const sim::HierarchyResult &result) override
    {
        const bool nl = covered(*icollector_, imonitor_, pc >> iline_shift_,
                                cycle, result);
        push(pc, cycle, pc, result, 0, nl);
        inner_->on_instr_access(cycle, pc, result);
    }

    void
    on_data_access(Cycle cycle, Pc pc, Addr addr, bool is_store,
                   const sim::HierarchyResult &result) override
    {
        const bool stride = stride_.access(pc, addr, dline_);
        const bool nl = covered(*dcollector_, dmonitor_,
                                addr >> dline_shift_, cycle, result);
        push(addr, cycle, pc, result,
             static_cast<std::uint8_t>(kData | (stride ? kStride : 0)), nl);
        inner_->on_data_access(cycle, pc, addr, is_store, result);
    }

  private:
    bool
    covered(const interval::IntervalCollector &collector,
            prefetch::NextLineMonitor &monitor, Addr block, Cycle cycle,
            const sim::HierarchyResult &result)
    {
        bool nl = false;
        Cycle open = 0;
        if (collector.open_since(result.l1.frame, open))
            nl = monitor.covers(block, open, cycle, lead_);
        monitor.record(block, cycle);
        return nl;
    }

    void
    push(Addr addr, Cycle cycle, Pc pc, const sim::HierarchyResult &result,
         std::uint8_t flags, bool nl)
    {
        Access a;
        a.addr = addr;
        a.cycle = cycle;
        a.pc = pc;
        a.l1_frame = result.l1.frame;
        a.flags = static_cast<std::uint8_t>(
            flags | (result.l1.hit ? kL1Hit : 0) | (nl ? kNextLine : 0));
        out_->push_back(a);
    }

    std::uint32_t iline_shift_;
    std::uint32_t dline_shift_;
    std::uint32_t dline_;
    Cycles lead_;
    prefetch::StridePredictor stride_;
    prefetch::NextLineMonitor imonitor_;
    prefetch::NextLineMonitor dmonitor_;
    interval::IntervalCollector *icollector_;
    interval::IntervalCollector *dcollector_;
    core::CollectingListener *inner_;
    std::vector<Access> *out_;
};

/** Listener that observes nothing (the cpu layer's own cost). */
class NoopListener final : public cpu::AccessListener
{
  public:
    void on_instr_access(Cycle, Pc, const sim::HierarchyResult &) override
    {
    }
    void on_data_access(Cycle, Pc, Addr, bool,
                        const sim::HierarchyResult &) override
    {
    }
};

core::ExperimentResult
empty_result(const core::ExperimentConfig &config, const std::string &name)
{
    const auto edges =
        interval::IntervalHistogramSet::default_edges(config.extra_edges);
    core::ExperimentResult result{
        core::CacheObservation(interval::IntervalHistogramSet(edges)),
        core::CacheObservation(interval::IntervalHistogramSet(edges))};
    result.workload = name;
    return result;
}

bool
same_stats(const sim::CacheStats &a, const sim::CacheStats &b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.evictions == b.evictions;
}

/**
 * Replay @p addrs through a fresh cache; returns seconds.  The seeds
 * match sim::Hierarchy's requester-0 seeds (they only matter for
 * Random replacement).
 */
double
replay_cache(const sim::CacheConfig &config, std::uint64_t seed,
             const std::vector<Addr> &addrs, sim::CacheStats &stats)
{
    sim::Cache cache(config, seed);
    std::uint64_t frames = 0;
    const auto begin = Clock::now();
    for (Addr a : addrs)
        frames += cache.access(a).frame;
    const double s = since(begin);
    keep(frames);
    stats = cache.stats();
    return s;
}

} // namespace

double
LayerTotals::self_sum_s() const
{
    const double cpu_self = cpu_run_s - workload_s - (l1i_s + l1d_s + l2_s);
    double classify_s = 0.0;
    for (double us : classify_us)
        classify_s += us * 1e-6;
    return workload_s + cpu_self + l1i_s + l1d_s + l2_s + collect_s +
           stride_s + nextline_s + classify_s;
}

core::ExperimentResult
capture_and_replay(const CaptureSpec &spec,
                   const core::ExperimentConfig &config, LayerTotals &totals,
                   Outcome &out, Tracer &tracer)
{
    const std::string id = spec.name + "/" + std::to_string(spec.seed);
    Scope top(tracer, "ledger.capture", id);
    const std::uint64_t n = config.instructions;

    // The reference: the workload's own call, untraced inside.
    auto w = workload::make_benchmark(spec.name, spec.seed);
    auto begin = Clock::now();
    core::ExperimentResult reference = core::run_experiment(*w, config);
    totals.run_s += since(begin);
    totals.instructions += reference.core.instructions;
    const std::string reference_bytes = core::serialize_result(reference);
    ++totals.analytic_runs;
    if (reference.analytic)
        ++totals.analytic_commits;

    // analytic: the classifier alone, per run.
    {
        Scope s(tracer, "analytic.classify", id, top.index());
        std::vector<double> us;
        std::uint64_t eligible = 0;
        for (int k = 0; k < 50; ++k) {
            begin = Clock::now();
            eligible += analytic::is_analyzable(*w, config.hierarchy, false);
            us.push_back(since(begin) * 1e6);
        }
        keep(eligible);
        totals.classify_us.push_back(median(us));
    }

    // Capture through the real CollectingListener.
    std::vector<Access> accesses;
    accesses.reserve(n / 2 + n / 8);
    core::ExperimentResult captured = empty_result(config, w->name());
    {
        Scope s(tracer, "ledger.capture_run", id, top.index());
        auto cw = workload::make_benchmark(spec.name, spec.seed);
        sim::Hierarchy hierarchy(config.hierarchy);
        interval::IntervalCollector ic(hierarchy.l1i().num_frames(),
                                       &captured.icache.intervals);
        interval::IntervalCollector dc(hierarchy.l1d().num_frames(),
                                       &captured.dcache.intervals);
        prefetch::StridePredictor stride(config.stride);
        core::CollectingListener inner(config.hierarchy, &ic, &dc, &stride,
                                       config.nl_lead_time);
        CaptureListener capture(config, &ic, &dc, &inner, &accesses);
        cpu::InOrderCore core(config.core, &hierarchy, cw.get(), &capture);
        captured.core = core.run(n);
        ic.finalize(captured.core.cycles);
        dc.finalize(captured.core.cycles);
        captured.icache.stats = hierarchy.l1i().stats();
        captured.dcache.stats = hierarchy.l1d().stats();
        captured.l2 = hierarchy.l2().stats();
    }
    out.check(core::serialize_result(captured) == reference_bytes,
              id + ": CollectingListener histograms differ from "
                   "run_experiment");
    const Cycle end_cycle = captured.core.cycles;
    double workload_share = 0.0;

    // workload: next_batch over the run's µop count.
    {
        Scope s(tracer, "workload.next_batch", id, top.index());
        auto rw = workload::make_benchmark(spec.name, spec.seed);
        trace::MicroOp buf[64];
        std::uint64_t got = 0;
        Addr last = 0;
        begin = Clock::now();
        while (got < n) {
            const std::size_t k = rw->next_batch(buf, 64);
            if (k == 0)
                break;
            got += k;
            last ^= buf[k - 1].addr;
        }
        workload_share = since(begin);
        keep(last);
        totals.workload_s += workload_share;
        totals.uops += got;
    }

    // cpu: the core loop with a no-op listener (workload + sim inside).
    {
        Scope s(tracer, "cpu.run_noop", id, top.index());
        auto rw = workload::make_benchmark(spec.name, spec.seed);
        sim::Hierarchy hierarchy(config.hierarchy);
        NoopListener noop;
        cpu::InOrderCore core(config.core, &hierarchy, rw.get(), &noop);
        begin = Clock::now();
        const cpu::CoreRunStats stats = core.run(n);
        totals.cpu_run_s += since(begin);
        out.check(stats.cycles == end_cycle,
                  id + ": no-op-listener run took a different cycle count");
    }

    // sim: the per-level address streams, replayed through fresh caches.
    double sim_share = 0.0;
    {
        std::vector<Addr> iaddr, daddr, l2addr;
        iaddr.reserve(n / 3);
        daddr.reserve(n / 3);
        for (const Access &a : accesses) {
            (a.flags & kData ? daddr : iaddr).push_back(a.addr);
            if (!(a.flags & kL1Hit))
                l2addr.push_back(a.addr);
        }
        Scope s(tracer, "sim.replay", id, top.index());
        sim::CacheStats st;
        double t = replay_cache(config.hierarchy.l1i, 11, iaddr, st);
        sim_share += t;
        totals.l1i_s += t;
        totals.l1i_accesses += st.accesses;
        totals.l1i_misses += st.misses;
        bool same = same_stats(st, reference.icache.stats);
        t = replay_cache(config.hierarchy.l1d, 13, daddr, st);
        sim_share += t;
        totals.l1d_s += t;
        totals.l1d_accesses += st.accesses;
        totals.l1d_misses += st.misses;
        same = same && same_stats(st, reference.dcache.stats);
        t = replay_cache(config.hierarchy.l2, 17, l2addr, st);
        totals.l2_s += t;
        totals.l2_accesses += st.accesses;
        totals.l2_misses += st.misses;
        same = same && same_stats(st, reference.l2);
        out.check(same, id + ": replayed cache streams do not reproduce "
                             "the run's CacheStats");
        sim::CacheConfig wide = config.hierarchy.l2;
        wide.associativity = 16;
        t = replay_cache(wide, 17, l2addr, st);
        sim_share += t;
        totals.l2_16way_s += t;
    }

    // interval: collection (binning included), then binning alone.
    double interval_share = 0.0;
    {
        Scope s(tracer, "interval.collect", id, top.index());
        core::ExperimentResult rebuilt = empty_result(config, w->name());
        interval::IntervalCollector ic(captured.icache.intervals.num_frames(),
                                       &rebuilt.icache.intervals);
        interval::IntervalCollector dc(captured.dcache.intervals.num_frames(),
                                       &rebuilt.dcache.intervals);
        begin = Clock::now();
        for (const Access &a : accesses) {
            (a.flags & kData ? dc : ic)
                .on_access(a.l1_frame, a.cycle, a.flags & kL1Hit,
                           a.flags & kStride, a.flags & kNextLine);
        }
        ic.finalize(end_cycle);
        dc.finalize(end_cycle);
        interval_share = since(begin);
        totals.collect_s += interval_share;
        totals.collect_accesses += accesses.size();
        rebuilt.core = captured.core;
        rebuilt.icache.stats = captured.icache.stats;
        rebuilt.dcache.stats = captured.dcache.stats;
        rebuilt.l2 = captured.l2;
        out.check(core::serialize_result(rebuilt) == reference_bytes,
                  id + ": histograms replayed from the captured accesses "
                       "differ from run_experiment");
    }
    {
        std::vector<interval::Interval> raw;
        {
            auto scratch = interval::IntervalHistogramSet(
                interval::IntervalHistogramSet::default_edges(
                    config.extra_edges));
            for (bool data : {false, true}) {
                const auto &obs = data ? captured.dcache : captured.icache;
                interval::IntervalCollector c(obs.intervals.num_frames(),
                                              &scratch, true);
                for (const Access &a : accesses) {
                    if (bool(a.flags & kData) == data)
                        c.on_access(a.l1_frame, a.cycle, a.flags & kL1Hit,
                                    a.flags & kStride, a.flags & kNextLine);
                }
                c.finalize(end_cycle);
                raw.insert(raw.end(), c.raw().begin(), c.raw().end());
            }
        }
        Scope s(tracer, "interval.bin", id, top.index());
        auto set = interval::IntervalHistogramSet(
            interval::IntervalHistogramSet::default_edges(
                config.extra_edges));
        begin = Clock::now();
        for (const interval::Interval &iv : raw)
            set.add(iv);
        totals.bin_s += since(begin);
        totals.intervals += raw.size();
    }

    // prefetch: the stride table over the data stream, the next-line
    // monitors over both streams.
    {
        std::vector<std::pair<Pc, Addr>> data;
        std::uint64_t expect_stride = 0;
        for (const Access &a : accesses) {
            if (a.flags & kData) {
                data.emplace_back(a.pc, a.addr);
                expect_stride += (a.flags & kStride) ? 1 : 0;
            }
        }
        Scope s(tracer, "prefetch.stride", id, top.index());
        prefetch::StridePredictor stride(config.stride);
        const std::uint32_t line = config.hierarchy.l1d.line_bytes;
        begin = Clock::now();
        for (const auto &[pc, addr] : data)
            stride.access(pc, addr, line);
        totals.stride_s += since(begin);
        totals.stride_accesses += stride.observed();
        totals.stride_covered += stride.covered();
        out.check(stride.covered() == expect_stride,
                  id + ": stride replay disagrees with the run");
    }
    {
        struct NlStep
        {
            Addr block;
            Cycle open;
            Cycle cycle;
            bool has_open;
        };
        std::vector<NlStep> steps[2];
        std::uint64_t expect_nl = 0;
        {
            std::vector<Cycle> last[2] = {
                std::vector<Cycle>(captured.icache.intervals.num_frames(), 0),
                std::vector<Cycle>(captured.dcache.intervals.num_frames(), 0)};
            std::vector<std::uint8_t> touched[2] = {
                std::vector<std::uint8_t>(last[0].size(), 0),
                std::vector<std::uint8_t>(last[1].size(), 0)};
            for (const Access &a : accesses) {
                const int side = (a.flags & kData) ? 1 : 0;
                const std::uint32_t shift =
                    side ? config.hierarchy.l1d.line_shift()
                         : config.hierarchy.l1i.line_shift();
                steps[side].push_back({a.addr >> shift, last[side][a.l1_frame],
                                       a.cycle,
                                       touched[side][a.l1_frame] != 0});
                last[side][a.l1_frame] = a.cycle;
                touched[side][a.l1_frame] = 1;
                expect_nl += (a.flags & kNextLine) ? 1 : 0;
            }
        }
        Scope s(tracer, "prefetch.nextline", id, top.index());
        std::uint64_t covered = 0;
        std::uint64_t attempts = 0;
        double t = 0.0;
        for (const auto &side : steps) {
            prefetch::NextLineMonitor monitor;
            begin = Clock::now();
            for (const NlStep &st : side) {
                if (st.has_open)
                    monitor.covers(st.block, st.open, st.cycle,
                                   config.nl_lead_time);
                monitor.record(st.block, st.cycle);
            }
            t += since(begin);
            covered += monitor.covered();
            for (const NlStep &st : side)
                attempts += st.has_open ? 1 : 0;
            totals.nl_accesses += side.size();
        }
        totals.nextline_s += t;
        totals.nl_attempts += attempts;
        totals.nl_covered += covered;
        out.check(covered == expect_nl,
                  id + ": next-line replay disagrees with the run");
    }

    totals.multicore_share_s[spec.name] =
        workload_share + sim_share + interval_share;
    return reference;
}

void
report_single_core_layers(const LayerTotals &t, Outcome &out)
{
    auto per = [](double s, std::uint64_t n) {
        return n ? s * 1e9 / static_cast<double>(n) : 0.0;
    };
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    const double sim_s = t.l1i_s + t.l1d_s + t.l2_s;
    out.metric("workload.ns_per_uop", "ns", per(t.workload_s, t.uops));
    out.metric("cpu.self_ns_per_instr", "ns",
               per(t.cpu_run_s - t.workload_s - sim_s, t.instructions));
    out.metric("sim.l1i.ns_per_access", "ns", per(t.l1i_s, t.l1i_accesses));
    out.metric("sim.l1d.ns_per_access", "ns", per(t.l1d_s, t.l1d_accesses));
    out.metric("sim.l2.ns_per_access", "ns", per(t.l2_s, t.l2_accesses));
    out.metric("sim.l2_16way.ns_per_access", "ns",
               per(t.l2_16way_s, t.l2_accesses));
    out.metric("sim.l1i.accesses", "count",
               static_cast<double>(t.l1i_accesses));
    out.metric("sim.l1d.accesses", "count",
               static_cast<double>(t.l1d_accesses));
    out.metric("sim.l2.accesses", "count",
               static_cast<double>(t.l2_accesses));
    out.metric("sim.l1i.miss_rate", "ratio",
               ratio(t.l1i_misses, t.l1i_accesses));
    out.metric("sim.l1d.miss_rate", "ratio",
               ratio(t.l1d_misses, t.l1d_accesses));
    out.metric("sim.l2.miss_rate", "ratio",
               ratio(t.l2_misses, t.l2_accesses));
    out.metric("interval.collect_ns_per_access", "ns",
               per(t.collect_s, t.collect_accesses));
    out.metric("interval.bin_ns_per_interval", "ns",
               per(t.bin_s, t.intervals));
    out.metric("interval.intervals", "count",
               static_cast<double>(t.intervals));
    out.metric("prefetch.stride_ns_per_access", "ns",
               per(t.stride_s, t.stride_accesses));
    out.metric("prefetch.nextline_ns_per_access", "ns",
               per(t.nextline_s, t.nl_accesses));
    out.metric("prefetch.stride_cover_ratio", "ratio",
               ratio(t.stride_covered, t.stride_accesses));
    out.metric("prefetch.nl_cover_ratio", "ratio",
               ratio(t.nl_covered, t.nl_attempts));
    out.metric("analytic.classify_us", "us", median(t.classify_us));
    out.metric("analytic.commit_ratio", "ratio",
               ratio(t.analytic_commits, t.analytic_runs));
    out.metric("glue.ns_per_instr", "ns",
               per(t.run_s - t.self_sum_s(), t.instructions));
    out.details.push_back({"ledger.run_ns_per_instr",
                           per(t.run_s, t.instructions)});
    out.details.push_back({"ledger.layer_sum_ns_per_instr",
                           per(t.self_sum_s(), t.instructions)});
}

void
report_core_layer(const std::vector<const core::ExperimentResult *> &results,
                  const std::string &scratch_dir, Outcome &out,
                  Tracer &tracer)
{
    Scope top(tracer, "core", "core");
    std::vector<const interval::IntervalHistogramSet *> ipop, dpop;
    for (const auto *r : results) {
        ipop.push_back(&r->icache.intervals);
        dpop.push_back(&r->dcache.intervals);
    }
    std::vector<double> grid_us;
    std::size_t cells = 0;
    for (int k = 0; k < 5; ++k) {
        Scope s(tracer, "core.policy_grid", "grid", top.index());
        const auto begin = Clock::now();
        cells = fig8_grid(ipop, dpop).cells;
        grid_us.push_back(since(begin) * 1e6);
    }
    out.metric("core.policy_grid_us_per_cell", "us",
               median(grid_us) / static_cast<double>(cells ? cells : 1));

    std::vector<double> ser, de, store, load;
    std::uint64_t bytes = 0;
    const std::string dir = scratch_dir + "/artifact-cache";
    std::filesystem::remove_all(dir);
    core::ArtifactCache cache(dir);
    std::uint64_t key = 0;
    for (const auto *r : results) {
        ++key;
        Scope s(tracer, "core.result", r->workload, top.index());
        auto begin = Clock::now();
        const std::string b = core::serialize_result(*r);
        ser.push_back(since(begin) * 1e6);
        bytes += b.size();
        begin = Clock::now();
        auto back = core::deserialize_result(b);
        de.push_back(since(begin) * 1e6);
        out.check(back && core::serialize_result(*back) == b,
                  r->workload + ": deserialize_result does not round-trip");
        begin = Clock::now();
        const util::Status stored = cache.store(key, *r);
        store.push_back(since(begin) * 1e6);
        begin = Clock::now();
        auto loaded = cache.try_load(key);
        load.push_back(since(begin) * 1e6);
        out.check(stored.ok() && loaded &&
                      core::serialize_result(*loaded) == b,
                  r->workload + ": artifact cache does not round-trip");
    }
    std::filesystem::remove_all(dir);
    out.metric("core.serialize_us", "us", median(ser));
    out.metric("core.deserialize_us", "us", median(de));
    out.metric("core.result_bytes", "bytes",
               results.empty() ? 0.0
                               : static_cast<double>(bytes) /
                                     static_cast<double>(results.size()));
    out.metric("core.artifact_store_us", "us", median(store));
    out.metric("core.artifact_load_us", "us", median(load));
}

core::ExperimentConfig
multicore_config(const std::vector<std::string> &mix,
                 std::uint64_t instructions_per_core)
{
    core::ExperimentConfig config = base_config(instructions_per_core);
    config.core_count = static_cast<std::uint32_t>(mix.size());
    config.workload_mix = mix;
    config.hierarchy.l2.associativity = 16;
    config.collect_l2 = true;
    return config;
}

void
report_multicore_layer(const std::vector<std::vector<std::string>> &mixes,
                       std::uint64_t instructions_per_core,
                       const LayerTotals &solo, Outcome &out, Tracer &tracer)
{
    double run_s = 0.0;
    double shares_s = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t closes = 0;
    for (const auto &mix : mixes) {
        const core::ExperimentConfig config =
            multicore_config(mix, instructions_per_core);
        const std::string label = multicore::mix_label(mix);
        Scope s(tracer, "multicore.run", label);
        const auto begin = Clock::now();
        const multicore::MulticoreResult r =
            multicore::run_multicore(mix.front(), config);
        run_s += since(begin);
        for (const auto &c : r.cores)
            instructions += c.stats.instructions;
        invalidations += r.invalidations;
        closes += r.l2_interval_closes;
        for (const std::string &name : mix) {
            auto it = solo.multicore_share_s.find(name);
            out.check(it != solo.multicore_share_s.end(),
                      "multicore ledger: no solo capture of " + name);
            if (it != solo.multicore_share_s.end())
                shares_s += it->second;
        }
    }
    const double n = static_cast<double>(instructions ? instructions : 1);
    out.metric("multicore.self_ns_per_instr", "ns",
               (run_s - shares_s) * 1e9 / n);
    out.metric("multicore.invalidations_per_kinstr", "count/kinstr",
               static_cast<double>(invalidations) * 1e3 / n);
    out.metric("multicore.l2_inval_close_ratio", "ratio",
               invalidations ? static_cast<double>(closes) /
                                   static_cast<double>(invalidations)
                             : 0.0);
}

const std::vector<std::string> &
hetero_mix()
{
    static const std::vector<std::string> mix = {"gcc", "gzip", "mesa",
                                                 "vortex"};
    return mix;
}

void
report_multicore_probe(const Options &opts, Outcome &out, Tracer &tracer)
{
    Scope s(tracer, "probe.multicore", "probe");
    const std::uint64_t n = opts.small ? 20'000 : 500'000;
    LayerTotals solo;
    for (const std::string &name : hetero_mix())
        capture_and_replay({name, 0}, base_config(n), solo, out, tracer);
    report_multicore_layer({hetero_mix()}, n, solo, out, tracer);
}

} // namespace leakbound::ledger
