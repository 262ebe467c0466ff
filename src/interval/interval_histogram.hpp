/**
 * @file
 * Exact histogram representation of an interval population.
 *
 * All per-interval energies in the paper's model are linear in the
 * interval length L (DESIGN.md §2), so a histogram whose cells record
 * (count, ΣL) evaluates any policy *exactly* — provided no cell
 * straddles a policy decision threshold.  IntervalHistogramSet
 * therefore partitions intervals by (kind, prefetch class, reuse flag)
 * and bins lengths with an edge list that includes every threshold the
 * experiments use (see default_edges()).
 */

#ifndef LEAKBOUND_INTERVAL_INTERVAL_HISTOGRAM_HPP
#define LEAKBOUND_INTERVAL_INTERVAL_HISTOGRAM_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "interval/interval.hpp"
#include "util/binary_io.hpp"
#include "util/histogram.hpp"
#include "util/logging.hpp"
#include "util/types.hpp"

namespace leakbound::interval {

/** Identity of one histogram cell during iteration. */
struct CellRef
{
    IntervalKind kind;   ///< interval kind
    PrefetchClass pf;    ///< prefetch class (Inner only; NP otherwise)
    bool ends_in_reuse;  ///< reuse flag (Inner only; false otherwise)
    Cycles lower;        ///< inclusive lower length bound
    Cycles upper;        ///< exclusive upper length bound (UINT64_MAX=inf)
    std::uint64_t count; ///< intervals in the cell
    std::uint64_t sum;   ///< summed lengths of those intervals
};

/**
 * The full interval population of one cache over one run, stored as
 * per-(kind, pf, reuse) histograms plus the frame/cycle totals needed
 * to normalize savings.
 */
class IntervalHistogramSet
{
  public:
    /** Construct with explicit bin edges (must include 0). */
    explicit IntervalHistogramSet(std::vector<std::uint64_t> edges);

    /** Construct over a prebuilt shared index (edges must include 0). */
    explicit IntervalHistogramSet(
        std::shared_ptr<const util::EdgeIndex> index);

    /** Construct over default_index(extra_thresholds). */
    static IntervalHistogramSet
    with_default_edges(const std::vector<Cycles> &extra_thresholds = {});

    /** Record one interval (inline — the simulation kernel's sink). */
    void
    add(const Interval &iv)
    {
        hists_[slot(iv.kind, iv.pf, iv.ends_in_reuse)].add(iv.length);
    }

    /** Merge a set with identical edges. */
    void merge(const IntervalHistogramSet &other);

    /**
     * Add @p k copies of the per-histogram difference (b - a) into this
     * set: for every slot, `hist += k * (b.hist - a.hist)`.  Used by
     * the analytic fast path to replay k detected periods at once; the
     * run info (frames / cycles) is untouched — finalize overwrites it.
     * @p b may alias `this`.
     */
    void add_scaled_diff(const IntervalHistogramSet &b,
                         const IntervalHistogramSet &a, std::uint64_t k);

    /** Set denominator metadata (frames in the cache, run length). */
    void set_run_info(std::uint64_t num_frames, Cycles total_cycles);

    /** Number of physical frames in the observed cache. */
    std::uint64_t num_frames() const { return num_frames_; }

    /** Length of the observed run in cycles. */
    Cycles total_cycles() const { return total_cycles_; }

    /**
     * Baseline leakage energy of the all-active cache:
     * num_frames * total_cycles * P_A, with P_A = 1 LU/cycle.
     */
    Energy baseline_energy() const;

    /** Visit every non-empty cell. */
    void for_each_cell(const std::function<void(const CellRef &)> &fn) const;

    /** Total number of recorded intervals. */
    std::uint64_t total_intervals() const;

    /** Total number of recorded Inner intervals. */
    std::uint64_t total_inner_intervals() const;

    /** Summed length of all recorded intervals. */
    std::uint64_t total_length() const;

    /** Count of Inner intervals in [lo, hi) for one prefetch class. */
    std::uint64_t inner_count_in(PrefetchClass pf, Cycles lo,
                                 Cycles hi) const;

    /** Count of Inner intervals in [lo, hi) across all classes. */
    std::uint64_t inner_count_in(Cycles lo, Cycles hi) const;

    /** The edge list in use. */
    const std::vector<std::uint64_t> &edges() const
    {
        return index_->edges();
    }

    /**
     * Append the full set to @p w in the compact layout the artifact
     * cache persists (see core::ArtifactCache), all varints: the edge
     * count and the edges as deltas (the first is 0), the slot count,
     * each histogram's non-empty bins (util::Histogram::write_bins),
     * then the run info.  The output is a pure function of the set's
     * contents, so two observably equal sets serialize to identical
     * bytes.
     */
    void serialize(util::BinaryWriter &w) const;

    /**
     * Rebuild a set from bytes written by serialize().  Every field is
     * bounds-checked and the edge list re-validated (non-empty, starts
     * at 0, strictly increasing without wrapping); @return nullopt on
     * any inconsistency rather than trusting the input.
     */
    static std::optional<IntervalHistogramSet>
    deserialize(util::BinaryReader &r);

    /**
     * Build the standard edge list: fine-grained 0..64, log2-spaced
     * up to 2^40, the paper's inflection points and sweep thresholds
     * (plus T+1 and T+overhead boundaries, with the transition
     * overheads taken from every power::TechNode), and any @p extra
     * values.
     */
    static std::vector<std::uint64_t>
    default_edges(const std::vector<Cycles> &extra_thresholds = {});

    /**
     * The shared edge index over default_edges(@p extra_thresholds),
     * derived and built once per process for each distinct extra list.
     * A small bounded, thread-safe memo keeps the indexes alive, so
     * runs, and decodes of entries over those edges (through
     * util::EdgeIndex::make's interning), share one index even while
     * no result holds it.
     */
    static std::shared_ptr<const util::EdgeIndex>
    default_index(const std::vector<Cycles> &extra_thresholds = {});

  private:
    /** A set whose histograms deserialize() fills in. */
    struct Unfilled
    {
    };
    IntervalHistogramSet(std::shared_ptr<const util::EdgeIndex> index,
                         Unfilled);

    /**
     * Histogram slot index for (kind, pf, reuse): Inner intervals use
     * slots pf * 2 + reuse, then Leading / Trailing / Untouched.
     */
    static std::size_t
    slot(IntervalKind kind, PrefetchClass pf, bool reuse)
    {
        switch (kind) {
          case IntervalKind::Inner:
            return static_cast<std::size_t>(pf) * 2 + (reuse ? 1 : 0);
          case IntervalKind::Leading:
            return kNumPrefetchClasses * 2;
          case IntervalKind::Trailing:
            return kNumPrefetchClasses * 2 + 1;
          case IntervalKind::Untouched:
            return kNumPrefetchClasses * 2 + 2;
        }
        LEAKBOUND_PANIC("unreachable: bad IntervalKind");
    }

    /** One O(1) edge index shared by all nine histograms. */
    std::shared_ptr<const util::EdgeIndex> index_;
    /**
     * Inner intervals use slots [0, 6) = pf * 2 + reuse; Leading,
     * Trailing, Untouched use slots 6, 7, 8.
     */
    std::vector<util::Histogram> hists_;
    std::uint64_t num_frames_ = 0;
    Cycles total_cycles_ = 0;
};

} // namespace leakbound::interval

#endif // LEAKBOUND_INTERVAL_INTERVAL_HISTOGRAM_HPP
