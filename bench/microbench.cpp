/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate itself:
 * cache access throughput, interval collection, histogram insertion,
 * exact policy evaluation, the stride predictor and the end-to-end
 * pipeline.  These guard the "laptop-scale in seconds" property the
 * bench suite depends on.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "interval/collector.hpp"
#include "prefetch/stride.hpp"
#include "sim/cache.hpp"
#include "trace/trace_io.hpp"
#include "util/binary_io.hpp"
#include "util/edge_index.hpp"
#include "util/flat_map.hpp"
#include "util/random.hpp"
#include "workload/spec_suite.hpp"

namespace {

using namespace leakbound;

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache(sim::CacheConfig::alpha_l1d());
    util::Rng rng(1);
    // 256KB working set: a realistic hit/miss mix.
    std::vector<Addr> addrs(4096);
    for (auto &a : addrs)
        a = rng.next_below(256 * 1024);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i++ & 4095]));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_IntervalCollect(benchmark::State &state)
{
    auto set = interval::IntervalHistogramSet::with_default_edges();
    interval::IntervalCollector collector(1024, &set);
    util::Rng rng(2);
    Cycle cycle = 0;
    for (auto _ : state) {
        cycle += rng.next_below(16);
        collector.on_access(
            static_cast<FrameId>(rng.next_below(1024)), cycle,
            rng.next_bool(0.9), false, rng.next_bool(0.2));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntervalCollect);

void
BM_HistogramAdd(benchmark::State &state)
{
    util::Histogram h(interval::IntervalHistogramSet::default_edges());
    util::Rng rng(3);
    for (auto _ : state)
        h.add(rng.next_below(1 << 20));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

void
BM_EdgeIndexBin(benchmark::State &state)
{
    // The O(1) dense + log2-jump-table lookup behind Histogram::add.
    const util::EdgeIndex index(
        interval::IntervalHistogramSet::default_edges());
    util::Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(index.bin_index(rng.next_below(1 << 20)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EdgeIndexBin);

void
BM_EdgeIndexBinReference(benchmark::State &state)
{
    // The std::upper_bound reference path EdgeIndex replaced; kept
    // benched so the speedup stays visible in BENCH_micro.json.
    const util::EdgeIndex index(
        interval::IntervalHistogramSet::default_edges());
    util::Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            index.bin_index_reference(rng.next_below(1 << 20)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EdgeIndexBinReference);

void
BM_FlatMapPutGet(benchmark::State &state)
{
    util::FlatMap map(1 << 16);
    util::Rng rng(4);
    for (auto _ : state) {
        const std::uint64_t k = rng.next_below(1 << 18);
        map.put(k, k);
        benchmark::DoNotOptimize(map.get_or(k ^ 1, 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapPutGet);

void
BM_StridePredictor(benchmark::State &state)
{
    prefetch::StridePredictor predictor;
    util::Rng rng(5);
    Addr addr = 0x100000;
    for (auto _ : state) {
        const Pc pc = 0x4000 + (rng.next_below(64) << 2);
        addr += 64;
        benchmark::DoNotOptimize(predictor.access(pc, addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StridePredictor);

void
BM_PolicyEvaluation(benchmark::State &state)
{
    // Evaluate OPT-Hybrid over a populated histogram set: this is the
    // inner loop of every figure sweep.
    const core::EnergyModel model(
        power::node_params(power::TechNode::Nm70));
    const auto policy = core::make_opt_hybrid(model);
    auto set = interval::IntervalHistogramSet::with_default_edges(
        policy->thresholds());
    util::Rng rng(6);
    for (int i = 0; i < 100'000; ++i) {
        interval::Interval iv;
        iv.length = rng.next_below(1 << 21);
        iv.ends_in_reuse = rng.next_bool(0.7);
        set.add(iv);
    }
    set.set_run_info(1024, 4'000'000);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::evaluate_policy(*policy, set));
    }
}
BENCHMARK(BM_PolicyEvaluation);

void
BM_PolicyGrid(benchmark::State &state)
{
    // The sweep binaries' inner loop: a policy x population grid
    // evaluated on the pool (state.range(0) = jobs; 1 = serial).
    const core::EnergyModel model(
        power::node_params(power::TechNode::Nm70));
    std::vector<core::PolicyPtr> owned;
    owned.push_back(core::make_opt_drowsy(model));
    owned.push_back(core::make_opt_sleep(model, 10'000));
    owned.push_back(core::make_decay_sleep(model, 10'000));
    owned.push_back(core::make_opt_hybrid(model));
    std::vector<Cycles> thresholds;
    std::vector<const core::Policy *> policies;
    for (const auto &p : owned) {
        for (Cycles t : p->thresholds())
            thresholds.push_back(t);
        policies.push_back(p.get());
    }

    std::vector<interval::IntervalHistogramSet> sets;
    util::Rng rng(7);
    for (int s = 0; s < 6; ++s) {
        sets.push_back(
            interval::IntervalHistogramSet::with_default_edges(thresholds));
        for (int i = 0; i < 50'000; ++i) {
            interval::Interval iv;
            iv.length = rng.next_below(1 << 21);
            iv.ends_in_reuse = rng.next_bool(0.7);
            sets.back().add(iv);
        }
        sets.back().set_run_info(1024, 4'000'000);
    }
    std::vector<const interval::IntervalHistogramSet *> set_ptrs;
    for (const auto &set : sets)
        set_ptrs.push_back(&set);

    const unsigned jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::evaluate_policy_grid(policies, set_ptrs, jobs));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(policies.size() * sets.size()));
}
BENCHMARK(BM_PolicyGrid)->Arg(1)->Arg(4);

void
BM_TraceIoRoundTrip(benchmark::State &state)
{
    // Streaming throughput of the block-buffered trace writer+reader:
    // one iteration writes and reads back a multi-block trace.
    const std::string path =
        (std::filesystem::temp_directory_path() / "lb_microbench_trace.bin")
            .string();
    constexpr std::size_t kRecords = 8 * trace::kBlockRecords;
    util::Rng rng(11);
    std::vector<trace::TimedAccess> records(kRecords);
    for (auto &rec : records) {
        rec.cycle = rng.next_u64();
        rec.pc = rng.next_u64();
        rec.addr = rng.next_u64();
        rec.kind = static_cast<trace::InstrKind>(rng.next_below(3));
    }
    for (auto _ : state) {
        {
            trace::TraceWriter w(path);
            for (const auto &rec : records)
                w.write(rec);
        }
        trace::TraceReader r(path);
        trace::TimedAccess rec;
        std::uint64_t sum = 0;
        while (r.next(rec))
            sum += rec.addr;
        benchmark::DoNotOptimize(sum);
    }
    std::remove(path.c_str());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRecords));
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>(2 * kRecords * trace::kTraceRecordBytes));
}
BENCHMARK(BM_TraceIoRoundTrip);

void
BM_ResultSerialize(benchmark::State &state)
{
    // Artifact-cache payload encode+decode for one benchmark result;
    // this bounds the per-entry overhead of a warm suite load.
    static const core::ExperimentResult result = [] {
        core::ExperimentConfig config;
        config.instructions = 100'000;
        config.extra_edges = core::standard_extra_edges();
        auto w = workload::make_benchmark("gzip");
        return core::run_experiment(*w, config);
    }();
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::string payload = core::serialize_result(result);
        bytes = payload.size();
        benchmark::DoNotOptimize(core::deserialize_result(payload));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_ResultSerialize);

void
BM_EndToEndPipeline(benchmark::State &state)
{
    // Instructions-per-second of the full workload->core->interval
    // pipeline on gzip, cold (invert items/s for ns/instr).
    core::ExperimentConfig config;
    config.instructions = 200'000;
    config.extra_edges = core::standard_extra_edges();
    for (auto _ : state) {
        auto w = workload::make_benchmark("gzip");
        benchmark::DoNotOptimize(core::run_experiment(*w, config));
    }
    state.SetItemsProcessed(state.iterations() * config.instructions);
}
BENCHMARK(BM_EndToEndPipeline);

} // namespace

BENCHMARK_MAIN();
