/**
 * @file
 * Implementation of cache configuration checks and presets.
 */

#include "sim/cache_config.hpp"

#include <bit>

namespace leakbound::sim {

namespace {

bool
is_pow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

const char *
replacement_name(ReplacementKind kind)
{
    switch (kind) {
      case ReplacementKind::Lru:
        return "LRU";
      case ReplacementKind::Fifo:
        return "FIFO";
      case ReplacementKind::Random:
        return "Random";
    }
    return "?";
}

std::uint64_t
CacheConfig::num_sets() const
{
    return size_bytes /
           (static_cast<std::uint64_t>(line_bytes) * associativity);
}

std::uint64_t
CacheConfig::num_frames() const
{
    return num_sets() * associativity;
}

std::uint64_t
CacheConfig::set_of_block(Addr block) const
{
    return block & set_mask();
}

std::uint32_t
CacheConfig::line_shift() const
{
    return static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(line_bytes)));
}

std::uint64_t
CacheConfig::set_mask() const
{
    return num_sets() - 1;
}

util::Status
CacheConfig::validate() const
{
    auto invalid = [this](const std::string &what) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "cache '" + name + "': " + what);
    };
    if (!is_pow2(line_bytes))
        return invalid("line_bytes must be a power of two");
    if (associativity == 0)
        return invalid("associativity must be nonzero");
    if (associativity > kMaxAssociativity) {
        return invalid("associativity " + std::to_string(associativity) +
                       " exceeds the maximum of " +
                       std::to_string(kMaxAssociativity) + " ways");
    }
    if (size_bytes == 0 ||
        size_bytes % (static_cast<std::uint64_t>(line_bytes) *
                      associativity) != 0) {
        return invalid("size must be a nonzero multiple of line*assoc");
    }
    if (!is_pow2(num_sets()))
        return invalid("number of sets must be a power of two");
    if (hit_latency == 0)
        return invalid("hit latency must be at least 1 cycle");
    return util::Status();
}

CacheConfig
CacheConfig::alpha_l1i()
{
    CacheConfig c;
    c.name = "l1i";
    c.size_bytes = 64 * 1024;
    c.line_bytes = 64;
    c.associativity = 2;
    c.hit_latency = 1;
    c.replacement = ReplacementKind::Lru;
    return c;
}

CacheConfig
CacheConfig::alpha_l1d()
{
    CacheConfig c;
    c.name = "l1d";
    c.size_bytes = 64 * 1024;
    c.line_bytes = 64;
    c.associativity = 2;
    c.hit_latency = 3;
    c.replacement = ReplacementKind::Lru;
    return c;
}

CacheConfig
CacheConfig::alpha_l2()
{
    CacheConfig c;
    c.name = "l2";
    c.size_bytes = 2 * 1024 * 1024;
    c.line_bytes = 64;
    c.associativity = 1;
    c.hit_latency = 7;
    c.replacement = ReplacementKind::Lru;
    return c;
}

} // namespace leakbound::sim
