/**
 * @file
 * Open-addressing hash map from u64 keys to u64 values, tuned for the
 * hot per-block bookkeeping tables (last-access times, stride state).
 * Linear probing with power-of-two capacity and automatic growth at
 * 70% load; ~4x faster than std::unordered_map on this access pattern
 * and allocation-free per operation after warm-up.
 *
 * The slot-index hash is a policy parameter; FibonacciHash (the
 * FlatMap default) scatters arbitrary key distributions uniformly.
 *
 * The all-ones key is reserved as the empty sentinel (block numbers
 * and PCs never reach it).
 */

#ifndef LEAKBOUND_UTIL_FLAT_MAP_HPP
#define LEAKBOUND_UTIL_FLAT_MAP_HPP

#include <cstdint>
#include <vector>

#include "util/logging.hpp"

namespace leakbound::util {

/** Fibonacci multiplicative hash: uniform scatter for arbitrary keys. */
struct FibonacciHash
{
    static std::size_t
    hash(std::uint64_t key)
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 17);
    }
};

/** u64 -> u64 linear-probing hash map over a slot-hash policy. */
template <typename Hash = FibonacciHash>
class BasicFlatMap
{
  public:
    /** @param initial_capacity rounded up to a power of two (min 16). */
    explicit BasicFlatMap(std::size_t initial_capacity = 1 << 16)
    {
        std::size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
    }

    /** Insert or overwrite. */
    void
    put(std::uint64_t key, std::uint64_t value)
    {
        LEAKBOUND_ASSERT(key != kEmpty, "reserved key");
        if ((size_ + 1) * 10 > slots_.size() * 7)
            grow();
        Slot &s = probe(key);
        if (s.key == kEmpty) {
            s.key = key;
            ++size_;
        }
        s.value = value;
    }

    /** Fetch into @p value; false when absent. */
    bool
    get(std::uint64_t key, std::uint64_t &value) const
    {
        LEAKBOUND_ASSERT(key != kEmpty, "reserved key");
        const Slot &s = const_cast<BasicFlatMap *>(this)->probe(key);
        if (s.key == kEmpty)
            return false;
        value = s.value;
        return true;
    }

    /** Fetch-or-default. */
    std::uint64_t
    get_or(std::uint64_t key, std::uint64_t fallback) const
    {
        std::uint64_t v;
        return get(key, v) ? v : fallback;
    }

    /** True when the key is present. */
    bool
    contains(std::uint64_t key) const
    {
        std::uint64_t v;
        return get(key, v);
    }

    /** Number of stored keys. */
    std::size_t size() const { return size_; }

    /**
     * Visit every (key, value) pair in unspecified (slot) order.
     * @param fn invoked as fn(key, value).
     */
    template <typename Fn>
    void
    for_each(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.key != kEmpty)
                fn(s.key, s.value);
    }

    /**
     * Visit every pair with a mutable value reference, in unspecified
     * order.  @param fn invoked as fn(key, value&); keys are immutable.
     */
    template <typename Fn>
    void
    for_each_mut(Fn &&fn)
    {
        for (Slot &s : slots_)
            if (s.key != kEmpty)
                fn(s.key, s.value);
    }

    /** Drop everything, keeping capacity. */
    void
    clear()
    {
        for (auto &s : slots_)
            s = Slot{};
        size_ = 0;
    }

  private:
    static constexpr std::uint64_t kEmpty = ~static_cast<std::uint64_t>(0);

    struct Slot
    {
        std::uint64_t key = kEmpty;
        std::uint64_t value = 0;
    };

    Slot &
    probe(std::uint64_t key)
    {
        std::size_t i = Hash::hash(key) & mask_;
        for (;;) {
            Slot &s = slots_[i];
            if (s.key == key || s.key == kEmpty)
                return s;
            i = (i + 1) & mask_;
        }
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        mask_ = slots_.size() - 1;
        size_ = 0;
        for (const Slot &s : old) {
            if (s.key != kEmpty) {
                Slot &dst = probe(s.key);
                dst = s;
                ++size_;
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

/** The default map (uniform scatter). */
using FlatMap = BasicFlatMap<FibonacciHash>;

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_FLAT_MAP_HPP
