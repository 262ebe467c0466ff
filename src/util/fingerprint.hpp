/**
 * @file
 * FNV-1a streaming fingerprint hasher.
 *
 * The experiment artifact cache keys entries by a 64-bit fingerprint
 * of everything that determines a simulation's output (workload name,
 * full ExperimentConfig, histogram edge list, format version).  FNV-1a
 * is not cryptographic — the cache defends against *accidents*
 * (version skew, config drift, torn writes), not adversaries — but it
 * is fast, dependency-free, and stable across platforms and runs,
 * which is exactly what a content-addressed filename needs.
 */

#ifndef LEAKBOUND_UTIL_FINGERPRINT_HPP
#define LEAKBOUND_UTIL_FINGERPRINT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace leakbound::util {

/** Streaming 64-bit FNV-1a hasher. */
class Fingerprint
{
  public:
    Fingerprint() = default;

    /** Resume a stream whose digest() so far was @p state. */
    explicit Fingerprint(std::uint64_t state) : state_(state) {}

    /** Absorb raw bytes. */
    void mix_bytes(const void *data, std::size_t size);

    /** Absorb one 64-bit value (as 8 little-endian bytes). */
    void mix_u64(std::uint64_t v);

    /**
     * Absorb a string, length-prefixed so ("ab","c") and ("a","bc")
     * hash differently.
     */
    void mix_string(const std::string &s);

    /** Absorb a u64 vector, length-prefixed. */
    void mix_u64_vector(const std::vector<std::uint64_t> &v);

    /** The digest of everything absorbed so far. */
    std::uint64_t digest() const { return state_; }

  private:
    /** FNV-1a 64-bit offset basis / prime. */
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    std::uint64_t state_ = kOffset;
};

/** One-shot convenience: FNV-1a of a byte buffer. */
std::uint64_t fnv1a(const void *data, std::size_t size);

/** @return @p v as a fixed-width 16-digit lowercase hex string. */
std::string hex64(std::uint64_t v);

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_FINGERPRINT_HPP
