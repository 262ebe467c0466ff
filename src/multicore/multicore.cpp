/**
 * @file
 * Implementation of the multicore shared-L2 engine.
 */

#include "multicore/multicore.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "core/collecting_listener.hpp"
#include "interval/collector.hpp"
#include "prefetch/stride.hpp"
#include "sim/hierarchy.hpp"
#include "util/logging.hpp"
#include "util/status.hpp"
#include "workload/spec_suite.hpp"

namespace leakbound::multicore {

namespace {

/** Seed of the shared L2 (the historical single-core L2 seed). */
constexpr std::uint64_t kSharedL2Seed = 17;

void
add_cache_stats(sim::CacheStats &into, const sim::CacheStats &from)
{
    into.accesses += from.accesses;
    into.hits += from.hits;
    into.misses += from.misses;
    into.evictions += from.evictions;
}

class Engine;

/**
 * Per-core access listener for InOrderCore::run_with: feeds the core's
 * own collectors and the shared-L2 collector through the shared
 * CollectingListener (same classification code as the single-core
 * engine), then routes data accesses to the engine's store snoop.
 */
class NodeListener
{
  public:
    NodeListener(Engine *engine, std::uint32_t core_id,
                 const sim::HierarchyConfig &config,
                 interval::IntervalCollector *icollector,
                 interval::IntervalCollector *dcollector,
                 interval::IntervalCollector *l2collector,
                 prefetch::StridePredictor *stride, Cycles nl_lead_time)
        : engine_(engine), core_id_(core_id),
          inner_(config, icollector, dcollector, stride, nl_lead_time)
    {
        // Every core feeds the one shared-L2 collector (null when L2
        // collection is off): a per-core collector could not see the
        // other cores' touches.
        inner_.set_l2_collector(l2collector);
    }

    void
    on_instr(Cycle cycle, Pc pc, const sim::HierarchyResult &result)
    {
        inner_.on_instr_access(cycle, pc, result);
    }

    void on_data(Cycle cycle, Pc pc, Addr addr, bool is_store,
                 const sim::HierarchyResult &result);
    void on_group_end() {}

  private:
    Engine *engine_;
    std::uint32_t core_id_;
    core::CollectingListener inner_;
};

/** The interleaver, the store snoop, and all per-core machinery. */
class Engine
{
  public:
    Engine(std::vector<std::string> names,
           const core::ExperimentConfig &config)
        : l2_(config.hierarchy.l2, kSharedL2Seed),
          l1d_line_shift_(config.hierarchy.l1d.line_shift()),
          l2_line_shift_(config.hierarchy.l2.line_shift())
    {
        const auto index = interval::IntervalHistogramSet::default_index(
            config.extra_edges);

        if (config.collect_l2) {
            l2_sink_.emplace(index);
            l2_collector_.emplace(l2_.num_frames(), &*l2_sink_);
        }

        owned_.assign(names.size(), kInvalidAddr);
        nodes_.reserve(names.size());
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(names.size()); ++i) {
            auto node = std::make_unique<Node>();
            node->workload_name = names[i];
            node->isink.emplace(index);
            node->dsink.emplace(index);
            node->hierarchy = std::make_unique<sim::Hierarchy>(
                config.hierarchy, &l2_, i);
            node->icollector =
                std::make_unique<interval::IntervalCollector>(
                    node->hierarchy->l1i().num_frames(), &*node->isink);
            node->dcollector =
                std::make_unique<interval::IntervalCollector>(
                    node->hierarchy->l1d().num_frames(), &*node->dsink);
            node->stride =
                std::make_unique<prefetch::StridePredictor>(config.stride);
            node->listener = std::make_unique<NodeListener>(
                this, i, config.hierarchy, node->icollector.get(),
                node->dcollector.get(),
                l2_collector_ ? &*l2_collector_ : nullptr,
                node->stride.get(), config.nl_lead_time);
            node->workload = workload::make_benchmark(names[i]);
            node->core = std::make_unique<cpu::InOrderCore>(
                config.core, node->hierarchy.get(), node->workload.get());
            node->remaining = config.instructions;
            l1ds_.push_back(&node->hierarchy->l1d());
            nodes_.push_back(std::move(node));
        }
    }

    MulticoreResult run();

    /**
     * Store snoop: a store by @p core_id kills every other core's L1D
     * copy of its block, in core-id order — closing their open L1D
     * intervals, and the shared line's L2 interval when the store
     * itself never reached the L2.  A repeat store to the block this
     * core last snooped skips the probes while no L1D miss has filled
     * it since (see owned_): they could find no copy to kill.
     */
    void
    on_data(std::uint32_t core_id, Cycle cycle, Addr addr, bool is_store,
            bool l1_hit)
    {
        const Addr block = addr >> l1d_line_shift_;
        if (!l1_hit) {
            for (Addr &owned : owned_) {
                if (owned == block)
                    owned = kInvalidAddr;
            }
        }
        if (!is_store || owned_[core_id] == block)
            return;
        owned_[core_id] = block;
        bool killed = false;
        for (std::uint32_t j = 0; j < nodes_.size(); ++j) {
            if (j == core_id)
                continue;
            const FrameId frame = l1ds_[j]->invalidate_block(block);
            if (frame == kInvalidFrame)
                continue;
            Node &node = *nodes_[j];
            // The kill closes the victim frame's open interval — the
            // line must leave low-leakage state to be snooped/dropped —
            // with no reuse (the resident block is destroyed, not
            // served) and no prefetch class.
            node.dcollector->on_access(frame, cycle, /*reuse=*/false,
                                       /*stride_predicted=*/false,
                                       /*nl_covered=*/false);
            ++node.invalidations_received;
            ++invalidations_;
            killed = true;
        }
        if (!killed)
            return; // exclusive already; no coherence traffic
        ++invalidating_stores_;

        // A store that *missed* its L1D already touched the L2 through
        // the access itself; only an L1-hit store reaches the shared
        // line purely through the coherence fabric.  The L2 may no
        // longer hold the line (no back-invalidation, so the hierarchy
        // is not inclusive) — then there is no interval to close.
        if (l1_hit && l2_collector_) {
            const Addr l2block =
                (block << l1d_line_shift_) >> l2_line_shift_;
            const FrameId frame = l2_.frame_of_block(l2block);
            if (frame != kInvalidFrame) {
                // The line stays resident in the L2 (the snoop kills
                // L1 copies), so this close is a reuse.
                l2_collector_->on_access(frame, cycle, /*reuse=*/true,
                                         /*stride_predicted=*/false,
                                         /*nl_covered=*/false);
                ++l2_interval_closes_;
            }
        }
    }

  private:
    struct Node
    {
        std::string workload_name;
        std::optional<interval::IntervalHistogramSet> isink;
        std::optional<interval::IntervalHistogramSet> dsink;
        std::unique_ptr<sim::Hierarchy> hierarchy;
        std::unique_ptr<interval::IntervalCollector> icollector;
        std::unique_ptr<interval::IntervalCollector> dcollector;
        std::unique_ptr<prefetch::StridePredictor> stride;
        std::unique_ptr<NodeListener> listener;
        workload::WorkloadPtr workload;
        std::unique_ptr<cpu::InOrderCore> core;
        std::uint64_t remaining = 0; ///< 0 once the core has stopped
        cpu::CoreRunStats stats; ///< accumulated deltas; cycles at end
        std::uint64_t invalidations_received = 0;
    };

    sim::Cache l2_;
    std::uint32_t l1d_line_shift_;
    std::uint32_t l2_line_shift_;
    std::optional<interval::IntervalHistogramSet> l2_sink_;
    std::optional<interval::IntervalCollector> l2_collector_;
    std::vector<std::unique_ptr<Node>> nodes_;
    /**
     * Per core, the L1D block of its last snooping store, or
     * kInvalidAddr once an L1D miss of any core has filled it since.
     * While set, no other L1D holds the block: the snoop killed every
     * copy, and a new copy needs a fill, which clears the entry.
     */
    std::vector<Addr> owned_;
    std::vector<sim::Cache *> l1ds_; ///< each node's L1D, for the snoop
    std::uint64_t invalidations_ = 0;
    std::uint64_t invalidating_stores_ = 0;
    std::uint64_t l2_interval_closes_ = 0;
};

void
NodeListener::on_data(Cycle cycle, Pc pc, Addr addr, bool is_store,
                      const sim::HierarchyResult &result)
{
    inner_.on_data_access(cycle, pc, addr, is_store, result);
    engine_->on_data(core_id_, cycle, addr, is_store, result.l1.hit);
}

MulticoreResult
Engine::run()
{
    for (;;) {
        // Step the core with the minimum (cycle, core_id) and find the
        // runner-up: the strict < over an in-order scan breaks cycle
        // ties toward the lower id.  The stepped core keeps the minimum
        // — the other cores' clocks are frozen while it runs — until
        // its clock reaches the runner-up's (one cycle past it when the
        // stepped core's id is lower), so running it up to that stop
        // cycle produces exactly the event order of stepping the
        // minimum one fetch group at a time.  Because the minimum only
        // ever increases, every event — including cross-core
        // invalidations landing in other cores' collectors — carries a
        // globally non-decreasing cycle stamp, which is what the
        // collectors' time-ordering invariant requires.
        const std::size_t none = nodes_.size();
        std::size_t next = none;
        std::size_t runner_up = none;
        Cycle first = cpu::InOrderCore::kNeverStop;
        Cycle second = cpu::InOrderCore::kNeverStop;
        for (std::size_t j = 0; j < nodes_.size(); ++j) {
            if (nodes_[j]->remaining == 0)
                continue;
            const Cycle cycle = nodes_[j]->core->cycle();
            if (cycle < first) {
                second = first;
                runner_up = next;
                first = cycle;
                next = j;
            } else if (cycle < second) {
                second = cycle;
                runner_up = j;
            }
        }
        if (next == none)
            break;

        const Cycle stop = runner_up == none
                               ? cpu::InOrderCore::kNeverStop
                               : second + (next < runner_up ? 1 : 0);
        Node &node = *nodes_[next];
        const cpu::CoreRunStats delta =
            node.core->run_with(node.remaining, *node.listener, stop);
        if (delta.instructions == 0) {
            node.remaining = 0; // finite workload exhausted
            continue;
        }
        node.stats.instructions += delta.instructions;
        node.stats.fetch_groups += delta.fetch_groups;
        node.stats.loads += delta.loads;
        node.stats.stores += delta.stores;
        node.stats.instr_stall_cycles += delta.instr_stall_cycles;
        node.stats.data_stall_cycles += delta.data_stall_cycles;
        node.remaining -= delta.instructions;
    }

    Cycle end_cycle = 0;
    for (auto &node : nodes_) {
        node->stats.cycles = node->core->cycle();
        end_cycle = std::max(end_cycle, node->core->cycle());
    }

    MulticoreResult result;
    result.end_cycle = end_cycle;
    result.invalidations = invalidations_;
    result.invalidating_stores = invalidating_stores_;
    result.l2_interval_closes = l2_interval_closes_;
    result.l2 = l2_.stats();

    result.cores.reserve(nodes_.size());
    for (auto &node : nodes_) {
        node->icollector->finalize(end_cycle);
        node->dcollector->finalize(end_cycle);
        CoreOutcome outcome{
            core::CacheObservation(std::move(*node->isink)),
            core::CacheObservation(std::move(*node->dsink))};
        outcome.workload = node->workload_name;
        outcome.stats = node->stats;
        outcome.icache.stats = node->hierarchy->l1i().stats();
        outcome.dcache.stats = node->hierarchy->l1d().stats();
        outcome.invalidations_received = node->invalidations_received;
        result.cores.push_back(std::move(outcome));
    }

    if (l2_collector_) {
        l2_collector_->finalize(end_cycle);
        result.l2cache.emplace(std::move(*l2_sink_));
        result.l2cache->stats = l2_.stats();
    }
    return result;
}

} // namespace

std::vector<std::string>
resolve_mix(const std::string &benchmark,
            const core::ExperimentConfig &config)
{
    if (!config.workload_mix.empty())
        return config.workload_mix;
    if (!workload::is_benchmark(benchmark)) {
        throw util::StatusError(util::Status(
            util::ErrorKind::InvalidArgument,
            "homogeneous multicore runs need a suite benchmark, got '" +
                benchmark + "'"));
    }
    return std::vector<std::string>(config.core_count, benchmark);
}

std::string
mix_label(const std::vector<std::string> &names)
{
    if (names.size() == 1)
        return names.front();
    std::string label = "mc" + std::to_string(names.size()) + ":";
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i != 0)
            label += "+";
        label += names[i];
    }
    return label;
}

MulticoreResult
run_multicore(const std::string &benchmark,
              const core::ExperimentConfig &config)
{
    if (util::Status valid = config.validate(); !valid.ok())
        throw util::StatusError(std::move(valid));
    if (config.keep_raw) {
        throw util::StatusError(util::Status(
            util::ErrorKind::InvalidArgument,
            "raw-interval retention (keep_raw) is single-core only"));
    }

    const std::vector<std::string> names = resolve_mix(benchmark, config);
    Engine engine(names, config);
    MulticoreResult result = engine.run();
    result.label = mix_label(names);

    std::uint64_t instructions = 0;
    for (const CoreOutcome &core : result.cores)
        instructions += core.stats.instructions;
    util::debug("multicore '", result.label, "': ", names.size(),
                " cores, ", instructions, " instrs, ", result.end_cycle,
                " cycles, ", result.invalidations, " invalidations");
    return result;
}

core::ExperimentResult
MulticoreResult::to_experiment_result() const
{
    core::CacheObservation ic = cores.front().icache;
    core::CacheObservation dc = cores.front().dcache;
    cpu::CoreRunStats stats = cores.front().stats;
    for (std::size_t i = 1; i < cores.size(); ++i) {
        ic.intervals.merge(cores[i].icache.intervals);
        add_cache_stats(ic.stats, cores[i].icache.stats);
        dc.intervals.merge(cores[i].dcache.intervals);
        add_cache_stats(dc.stats, cores[i].dcache.stats);
        stats.instructions += cores[i].stats.instructions;
        stats.fetch_groups += cores[i].stats.fetch_groups;
        stats.loads += cores[i].stats.loads;
        stats.stores += cores[i].stats.stores;
        stats.instr_stall_cycles += cores[i].stats.instr_stall_cycles;
        stats.data_stall_cycles += cores[i].stats.data_stall_cycles;
    }
    // The run's wall-clock extent is the slowest core's, not a sum —
    // exactly the end-of-run timestamp every collector finalized at.
    stats.cycles = end_cycle;

    core::ExperimentResult result(std::move(ic), std::move(dc));
    result.workload = label;
    result.core = stats;
    result.l2cache = l2cache;
    result.l2 = l2;
    return result;
}

core::ExperimentResult
run_multicore_summary(const std::string &benchmark,
                      const core::ExperimentConfig &config)
{
    const auto wall_start = std::chrono::steady_clock::now();
    core::ExperimentResult result =
        run_multicore(benchmark, config).to_experiment_result();
    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    return result;
}

} // namespace leakbound::multicore
