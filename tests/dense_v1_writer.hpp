/**
 * @file
 * A test-side writer of the original dense result layout (format 1).
 *
 * Format 1 stored every histogram cell as two fixed u64s whether the
 * cell was empty or not; src/ now writes only the non-empty cells as
 * varints.  The byte-identity pins of the stock workloads were taken
 * over the dense bytes, so this writer rebuilds them from public
 * accessors alone (edges(), for_each_cell, the run info, the core and
 * cache stats).  A pin computed through it checks the simulation, not
 * the encoding: it keeps its constant however the payload changes.
 *
 * Dense layout, all little-endian u64 unless noted:
 *
 *   result      = string workload | 7 core stats | obs icache |
 *                 obs dcache | u8 has_l2 | [obs l2] | 4 L2 stats
 *   obs         = set | 4 cache stats
 *   set         = edge count | edges | slot count (9) |
 *                 9 x (bin count | bin count x (count, sum)) |
 *                 num_frames | total_cycles
 */

#ifndef LEAKBOUND_TESTS_DENSE_V1_WRITER_HPP
#define LEAKBOUND_TESTS_DENSE_V1_WRITER_HPP

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "interval/interval_histogram.hpp"
#include "util/binary_io.hpp"
#include "util/histogram.hpp"
#include "util/logging.hpp"

namespace leakbound::oracle {

/** Histogram slot of a cell: Inner pf * 2 + reuse, then L / T / U. */
inline std::size_t
dense_v1_slot(const interval::CellRef &cell)
{
    constexpr std::size_t inner = interval::kNumPrefetchClasses * 2;
    switch (cell.kind) {
      case interval::IntervalKind::Inner:
        return static_cast<std::size_t>(cell.pf) * 2 +
               (cell.ends_in_reuse ? 1 : 0);
      case interval::IntervalKind::Leading:
        return inner;
      case interval::IntervalKind::Trailing:
        return inner + 1;
      case interval::IntervalKind::Untouched:
        return inner + 2;
    }
    LEAKBOUND_PANIC("unreachable: bad IntervalKind");
}

inline void
dense_v1_set(util::BinaryWriter &w, const interval::IntervalHistogramSet &set)
{
    constexpr std::size_t slots = interval::kNumPrefetchClasses * 2 + 3;
    const std::vector<std::uint64_t> &edges = set.edges();
    std::vector<util::HistBin> cells(slots * edges.size());
    set.for_each_cell([&](const interval::CellRef &cell) {
        const auto bin = static_cast<std::size_t>(
            std::lower_bound(edges.begin(), edges.end(), cell.lower) -
            edges.begin());
        cells[dense_v1_slot(cell) * edges.size() + bin] = {cell.count,
                                                           cell.sum};
    });
    w.put_u64(edges.size());
    for (std::uint64_t e : edges)
        w.put_u64(e);
    w.put_u64(slots);
    for (std::size_t s = 0; s < slots; ++s) {
        w.put_u64(edges.size());
        for (std::size_t i = 0; i < edges.size(); ++i) {
            w.put_u64(cells[s * edges.size() + i].count);
            w.put_u64(cells[s * edges.size() + i].sum);
        }
    }
    w.put_u64(set.num_frames());
    w.put_u64(set.total_cycles());
}

inline void
dense_v1_stats(util::BinaryWriter &w, const sim::CacheStats &stats)
{
    w.put_u64(stats.accesses);
    w.put_u64(stats.hits);
    w.put_u64(stats.misses);
    w.put_u64(stats.evictions);
}

inline void
dense_v1_observation(util::BinaryWriter &w,
                     const core::CacheObservation &obs)
{
    dense_v1_set(w, obs.intervals);
    dense_v1_stats(w, obs.stats);
}

/** @p result in the dense format-1 layout. */
inline std::string
serialize_dense_v1(const core::ExperimentResult &result)
{
    util::BinaryWriter w;
    w.put_string(result.workload);
    w.put_u64(result.core.instructions);
    w.put_u64(result.core.cycles);
    w.put_u64(result.core.fetch_groups);
    w.put_u64(result.core.loads);
    w.put_u64(result.core.stores);
    w.put_u64(result.core.instr_stall_cycles);
    w.put_u64(result.core.data_stall_cycles);
    dense_v1_observation(w, result.icache);
    dense_v1_observation(w, result.dcache);
    w.put_u8(result.l2cache.has_value() ? 1 : 0);
    if (result.l2cache)
        dense_v1_observation(w, *result.l2cache);
    dense_v1_stats(w, result.l2);
    return w.take();
}

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_DENSE_V1_WRITER_HPP
