/**
 * @file
 * Implementation of the exact interval histogram set.
 */

#include "interval/interval_histogram.hpp"

#include <algorithm>
#include <mutex>

#include "power/technology.hpp"
#include "util/logging.hpp"

namespace leakbound::interval {

namespace {

/** Slots: 6 Inner combinations + Leading + Trailing + Untouched. */
constexpr std::size_t kInnerSlots = kNumPrefetchClasses * 2;
constexpr std::size_t kLeadingSlot = kInnerSlots;
constexpr std::size_t kTrailingSlot = kInnerSlots + 1;
constexpr std::size_t kUntouchedSlot = kInnerSlots + 2;
constexpr std::size_t kNumSlots = kInnerSlots + 3;

/** Bounds of the memo behind default_index(). */
constexpr std::size_t kIndexMemoEntries = 32;
constexpr std::size_t kIndexMemoMaxExtras = 1024;

} // namespace

IntervalHistogramSet::IntervalHistogramSet(std::vector<std::uint64_t> edges)
    : IntervalHistogramSet(util::EdgeIndex::make(std::move(edges)))
{
}

IntervalHistogramSet::IntervalHistogramSet(
    std::shared_ptr<const util::EdgeIndex> index)
    : IntervalHistogramSet(std::move(index), Unfilled{})
{
    for (std::size_t i = 0; i < kNumSlots; ++i)
        hists_.emplace_back(index_);
}

IntervalHistogramSet::IntervalHistogramSet(
    std::shared_ptr<const util::EdgeIndex> index, Unfilled)
    : index_(std::move(index))
{
    LEAKBOUND_ASSERT(index_ != nullptr && index_->edges().front() == 0,
                     "interval histogram edges must start at 0");
    hists_.reserve(kNumSlots);
}

IntervalHistogramSet
IntervalHistogramSet::with_default_edges(
    const std::vector<Cycles> &extra_thresholds)
{
    return IntervalHistogramSet(default_index(extra_thresholds));
}

void
IntervalHistogramSet::merge(const IntervalHistogramSet &other)
{
    LEAKBOUND_ASSERT(index_ == other.index_ || edges() == other.edges(),
                     "merging interval sets with different edges");
    for (std::size_t i = 0; i < hists_.size(); ++i)
        hists_[i].merge(other.hists_[i]);
    num_frames_ += other.num_frames_;
    // Runs are merged side by side (e.g. averaging benchmarks); the
    // cycle axis must match for baseline_energy to stay meaningful, so
    // keep the max and rely on per-frame totals via baseline_energy of
    // each component when exactness matters (Savings handles this by
    // aggregating energies, not sets, across benchmarks).
    total_cycles_ = std::max(total_cycles_, other.total_cycles_);
}

void
IntervalHistogramSet::add_scaled_diff(const IntervalHistogramSet &b,
                                      const IntervalHistogramSet &a,
                                      std::uint64_t k)
{
    LEAKBOUND_ASSERT(index_ == b.index_ || edges() == b.edges(),
                     "scaled diff over different edges");
    LEAKBOUND_ASSERT(index_ == a.index_ || edges() == a.edges(),
                     "scaled diff over different edges");
    for (std::size_t i = 0; i < hists_.size(); ++i)
        hists_[i].add_scaled_diff(b.hists_[i], a.hists_[i], k);
}

void
IntervalHistogramSet::set_run_info(std::uint64_t num_frames,
                                   Cycles total_cycles)
{
    num_frames_ = num_frames;
    total_cycles_ = total_cycles;
}

Energy
IntervalHistogramSet::baseline_energy() const
{
    return static_cast<Energy>(num_frames_) *
           static_cast<Energy>(total_cycles_);
}

void
IntervalHistogramSet::for_each_cell(
    const std::function<void(const CellRef &)> &fn) const
{
    auto emit = [&fn](const util::Histogram &h, IntervalKind kind,
                      PrefetchClass pf, bool reuse) {
        for (std::size_t i = 0; i < h.num_bins(); ++i) {
            const auto &b = h.bin(i);
            if (b.count == 0)
                continue;
            CellRef cell;
            cell.kind = kind;
            cell.pf = pf;
            cell.ends_in_reuse = reuse;
            cell.lower = h.lower_edge(i);
            cell.upper = h.upper_edge(i);
            cell.count = b.count;
            cell.sum = b.sum;
            fn(cell);
        }
    };

    for (std::size_t p = 0; p < kNumPrefetchClasses; ++p) {
        for (int reuse = 0; reuse < 2; ++reuse) {
            const auto pf = static_cast<PrefetchClass>(p);
            emit(hists_[slot(IntervalKind::Inner, pf, reuse != 0)],
                 IntervalKind::Inner, pf, reuse != 0);
        }
    }
    emit(hists_[kLeadingSlot], IntervalKind::Leading,
         PrefetchClass::NonPrefetchable, false);
    emit(hists_[kTrailingSlot], IntervalKind::Trailing,
         PrefetchClass::NonPrefetchable, false);
    emit(hists_[kUntouchedSlot], IntervalKind::Untouched,
         PrefetchClass::NonPrefetchable, false);
}

std::uint64_t
IntervalHistogramSet::total_intervals() const
{
    std::uint64_t total = 0;
    for (const auto &h : hists_)
        total += h.total_count();
    return total;
}

std::uint64_t
IntervalHistogramSet::total_inner_intervals() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kInnerSlots; ++i)
        total += hists_[i].total_count();
    return total;
}

std::uint64_t
IntervalHistogramSet::total_length() const
{
    std::uint64_t total = 0;
    for (const auto &h : hists_)
        total += h.total_sum();
    return total;
}

std::uint64_t
IntervalHistogramSet::inner_count_in(PrefetchClass pf, Cycles lo,
                                     Cycles hi) const
{
    std::uint64_t total = 0;
    for (int reuse = 0; reuse < 2; ++reuse) {
        const auto &h = hists_[slot(IntervalKind::Inner, pf, reuse != 0)];
        for (std::size_t i = 0; i < h.num_bins(); ++i) {
            if (h.lower_edge(i) >= lo && h.upper_edge(i) <= hi)
                total += h.bin(i).count;
        }
    }
    return total;
}

std::uint64_t
IntervalHistogramSet::inner_count_in(Cycles lo, Cycles hi) const
{
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < kNumPrefetchClasses; ++p)
        total += inner_count_in(static_cast<PrefetchClass>(p), lo, hi);
    return total;
}

void
IntervalHistogramSet::serialize(util::BinaryWriter &w) const
{
    const std::vector<std::uint64_t> &edges = index_->edges();
    w.put_varint(edges.size());
    std::uint64_t prev = 0;
    for (std::uint64_t e : edges) {
        w.put_varint(e - prev);
        prev = e;
    }
    w.put_varint(hists_.size());
    for (const util::Histogram &h : hists_)
        h.write_bins(w);
    w.put_varint(num_frames_);
    w.put_varint(total_cycles_);
}

std::optional<IntervalHistogramSet>
IntervalHistogramSet::deserialize(util::BinaryReader &r)
{
    // Every edge takes at least one byte, so a count past the bytes
    // left is corrupt; check it before reserving anything.
    const std::uint64_t n = r.get_varint();
    if (r.failed() || n == 0 || n > r.remaining())
        return std::nullopt;
    std::vector<std::uint64_t> edges;
    edges.reserve(static_cast<std::size_t>(n));
    std::uint64_t edge = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        // The first edge is 0; later deltas are >= 1 and never wrap.
        const std::uint64_t delta = r.get_varint();
        if (r.failed() || (i == 0) != (delta == 0) ||
            delta > ~std::uint64_t{0} - edge)
            return std::nullopt;
        edge += delta;
        edges.push_back(edge);
    }

    IntervalHistogramSet set(util::EdgeIndex::make(std::move(edges)),
                             Unfilled{});
    if (r.get_varint() != kNumSlots || r.failed())
        return std::nullopt;
    for (std::size_t i = 0; i < kNumSlots; ++i) {
        auto h = util::Histogram::read_bins(set.index_, r);
        if (!h)
            return std::nullopt;
        set.hists_.push_back(std::move(*h));
    }
    set.num_frames_ = r.get_varint();
    set.total_cycles_ = r.get_varint();
    if (r.failed())
        return std::nullopt;
    return set;
}

std::shared_ptr<const util::EdgeIndex>
IntervalHistogramSet::default_index(const std::vector<Cycles> &extra)
{
    auto build = [&extra] {
        return util::EdgeIndex::make(default_edges(extra));
    };
    if (extra.size() > kIndexMemoMaxExtras)
        return build();

    // Replaced round-robin once full: a process sees a handful of
    // distinct extra lists, and a miss only costs one build.
    struct Entry
    {
        std::vector<Cycles> extra;
        std::shared_ptr<const util::EdgeIndex> index;
    };
    static std::mutex mutex;
    static std::vector<Entry> entries;
    static std::size_t next_victim = 0;

    std::lock_guard<std::mutex> lock(mutex);
    for (const Entry &entry : entries)
        if (entry.extra == extra)
            return entry.index;
    Entry entry{extra, build()};
    auto index = entry.index;
    if (entries.size() < kIndexMemoEntries) {
        entries.push_back(std::move(entry));
    } else {
        entries[next_victim] = std::move(entry);
        next_victim = (next_victim + 1) % kIndexMemoEntries;
    }
    return index;
}

std::vector<std::uint64_t>
IntervalHistogramSet::default_edges(const std::vector<Cycles> &extra)
{
    std::vector<std::uint64_t> edges;
    // Fine-grained small lengths: the active-drowsy point (6), the
    // transition overheads (3, 30, 33, 37) and everything nearby.
    for (std::uint64_t e = 0; e <= 64; ++e)
        edges.push_back(e);
    // Log2-ish coverage for distribution reporting.
    for (std::uint64_t e = 128; e <= (1ULL << 40); e <<= 1)
        edges.push_back(e);

    // Every decision threshold T any stock experiment uses, with T+1
    // (the "> T" boundary) and T+overhead boundaries for decay-style
    // piecewise policies.
    std::vector<std::uint64_t> thresholds = {
        // paper Table 1 inflection points
        1057, 5088, 10328, 103084,
        // Fig. 7 sweep values
        1200, 1500, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000,
        // decay sweep (ablation): 1K..64K
        1000, 16000, 32000, 64000,
    };
    thresholds.insert(thresholds.end(), extra.begin(), extra.end());

    // Decay-style policies sleep a frame only after the threshold plus
    // the node's sleep transition overhead has elapsed, so those
    // boundaries must be exact bin edges too.  Derive the overhead
    // offsets from the actual technology parameters (historically a
    // hardcoded 37 = the 70nm s1+s3+s4) so custom timings keep landing
    // on exact edges at every node.
    std::vector<std::uint64_t> overheads;
    for (power::TechNode node : power::all_nodes())
        overheads.push_back(
            power::node_params(node).timings.sleep_overhead());
    std::sort(overheads.begin(), overheads.end());
    overheads.erase(std::unique(overheads.begin(), overheads.end()),
                    overheads.end());

    for (std::uint64_t t : thresholds) {
        edges.push_back(t);
        edges.push_back(t + 1);
        for (std::uint64_t o : overheads) {
            edges.push_back(t + o);
            edges.push_back(t + o + 1);
        }
    }

    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

} // namespace leakbound::interval
