/**
 * @file
 * Tests of the persistent artifact cache (core/artifact_cache.hpp):
 * serialization round-trip fuzz, fingerprint sensitivity to every
 * config field, corrupt/truncated-entry recovery, the lock protocol,
 * and cold-vs-warm run_suite byte-identity.
 */

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "util/fingerprint.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;
using namespace leakbound::core;

namespace {

namespace fs = std::filesystem;

/** A fresh, empty cache directory under the test temp dir. */
std::string
fresh_cache_dir(const char *name)
{
    const std::string dir = ::testing::TempDir() + name;
    fs::remove_all(dir);
    return dir;
}

ExperimentConfig
small_config()
{
    ExperimentConfig config;
    config.instructions = 50'000;
    config.extra_edges = standard_extra_edges();
    return config;
}

/** One small real run to serialize (static: simulate once per binary). */
const ExperimentResult &
sample_result()
{
    static const ExperimentResult result = [] {
        auto w = workload::make_benchmark("gzip");
        return run_experiment(*w, small_config());
    }();
    return result;
}

/** As above but with the L2 observation populated. */
const ExperimentResult &
sample_result_l2()
{
    static const ExperimentResult result = [] {
        auto w = workload::make_benchmark("ammp");
        ExperimentConfig config = small_config();
        config.collect_l2 = true;
        return run_experiment(*w, config);
    }();
    return result;
}

/** Draw a fuzzed interval covering all kinds/classes and edge lengths. */
interval::Interval
fuzz_interval(util::Rng &rng)
{
    interval::Interval iv;
    switch (rng.next_below(8)) {
      case 0: iv.length = 0; break;
      case 1: iv.length = 1; break;
      case 2: iv.length = ~static_cast<Cycles>(0) >> 1; break;
      default: iv.length = rng.next_below(1 << 22); break;
    }
    iv.kind = static_cast<interval::IntervalKind>(rng.next_below(4));
    iv.pf = static_cast<interval::PrefetchClass>(rng.next_below(3));
    iv.ends_in_reuse = rng.next_bool(0.5);
    return iv;
}

} // namespace

// ---------------------------------------------------------------------
// Serialization round-trips.
// ---------------------------------------------------------------------

TEST(ArtifactCache, HistogramSetRoundTripFuzz)
{
    // Random populations -> bytes -> set -> bytes must be a fixed
    // point: the second serialization is byte-identical to the first.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        util::Rng rng(seed * 0x9e37'79b9ULL);
        std::vector<Cycles> extras;
        for (std::size_t i = rng.next_below(6); i > 0; --i)
            extras.push_back(rng.next_below(1 << 20));
        auto set =
            interval::IntervalHistogramSet::with_default_edges(extras);
        const std::size_t n = 100 + rng.next_below(2000);
        for (std::size_t i = 0; i < n; ++i)
            set.add(fuzz_interval(rng));
        set.set_run_info(512 + rng.next_below(4096),
                         1 + rng.next_u64() % (1ULL << 40));

        util::BinaryWriter w;
        set.serialize(w);
        const std::string bytes = w.take();

        util::BinaryReader r(bytes);
        auto restored = interval::IntervalHistogramSet::deserialize(r);
        ASSERT_TRUE(restored.has_value()) << "seed " << seed;
        EXPECT_TRUE(r.at_end()) << "seed " << seed;

        util::BinaryWriter w2;
        restored->serialize(w2);
        EXPECT_EQ(bytes, w2.take()) << "seed " << seed;
        EXPECT_EQ(restored->total_intervals(), set.total_intervals());
        EXPECT_EQ(restored->total_length(), set.total_length());
        EXPECT_EQ(restored->num_frames(), set.num_frames());
        EXPECT_EQ(restored->total_cycles(), set.total_cycles());
    }
}

TEST(ArtifactCache, ResultRoundTripsExactly)
{
    for (const ExperimentResult *result :
         {&sample_result(), &sample_result_l2()}) {
        const std::string bytes = serialize_result(*result);
        auto restored = deserialize_result(bytes);
        ASSERT_TRUE(restored.has_value());
        // Byte-identity is the contract the cache depends on.
        EXPECT_EQ(serialize_result(*restored), bytes);
        EXPECT_EQ(restored->workload, result->workload);
        EXPECT_EQ(restored->core.cycles, result->core.cycles);
        EXPECT_EQ(restored->core.instructions, result->core.instructions);
        EXPECT_EQ(restored->dcache.stats.misses,
                  result->dcache.stats.misses);
        EXPECT_EQ(restored->l2cache.has_value(),
                  result->l2cache.has_value());
        EXPECT_EQ(restored->l2.accesses, result->l2.accesses);
    }
}

TEST(ArtifactCache, ReportingFieldsExcludedFromPayload)
{
    ExperimentResult copy = sample_result();
    copy.wall_seconds = 123.456;
    copy.from_cache = true;
    EXPECT_EQ(serialize_result(copy), serialize_result(sample_result()));
}

namespace {

/** gcc at 400k instructions, the size guard's reference result. */
const ExperimentResult &
gcc_result()
{
    static const ExperimentResult result = [] {
        auto w = workload::make_benchmark("gcc");
        ExperimentConfig config = small_config();
        config.instructions = 400'000;
        return run_experiment(*w, config);
    }();
    return result;
}

std::string
varint_bytes(std::initializer_list<std::uint64_t> values)
{
    util::BinaryWriter w;
    for (std::uint64_t v : values)
        w.put_varint(v);
    return w.take();
}

/** One histogram's encoding: bin count, entries, (delta, count, sum)s. */
std::string
hist_bytes(std::uint64_t bins,
           std::initializer_list<std::array<std::uint64_t, 3>> entries)
{
    util::BinaryWriter w;
    w.put_varint(bins);
    w.put_varint(entries.size());
    for (const auto &e : entries)
        for (std::uint64_t v : e)
            w.put_varint(v);
    return w.take();
}

/**
 * A set over the edges given as @p edge_deltas whose first histogram
 * is @p first_hist and whose other eight are empty.
 */
std::string
set_bytes(std::initializer_list<std::uint64_t> edge_deltas,
          const std::string &first_hist)
{
    util::BinaryWriter w;
    w.put_varint(edge_deltas.size());
    for (std::uint64_t d : edge_deltas)
        w.put_varint(d);
    w.put_varint(9);
    std::string bytes = w.take() + first_hist;
    for (int slot = 1; slot < 9; ++slot)
        bytes += hist_bytes(edge_deltas.size(), {});
    return bytes + varint_bytes({512, 1000});
}

/**
 * Whether @p bytes decode as exactly one set.  The reader runs over an
 * exact-size heap copy, so a read past the end is an ASan report.
 */
bool
set_decodes(const std::string &bytes)
{
    const auto exact = std::make_unique<char[]>(bytes.size());
    std::memcpy(exact.get(), bytes.data(), bytes.size());
    util::BinaryReader r(exact.get(), bytes.size());
    return interval::IntervalHistogramSet::deserialize(r).has_value() &&
           r.at_end();
}

/** Whether reading one varint from @p bytes fails. */
bool
varint_fails(const std::string &bytes)
{
    const auto exact = std::make_unique<char[]>(bytes.size());
    std::memcpy(exact.get(), bytes.data(), bytes.size());
    util::BinaryReader r(exact.get(), bytes.size());
    r.get_varint();
    return r.failed();
}

} // namespace

TEST(ArtifactCache, DeserializeRejectsMangledPayloads)
{
    const std::string bytes = serialize_result(gcc_result());
    ASSERT_TRUE(deserialize_result(bytes).has_value());
    // Every proper prefix, the empty string included, must fail
    // cleanly (no crash, no partial result).
    for (std::size_t len = 0; len < bytes.size(); ++len)
        EXPECT_FALSE(deserialize_result(bytes.substr(0, len)).has_value())
            << "prefix " << len;
    // Trailing garbage is rejected too (at_end() contract).
    EXPECT_FALSE(deserialize_result(bytes + "x").has_value());
    EXPECT_FALSE(deserialize_result(bytes + '\0').has_value());
    EXPECT_FALSE(set_decodes(set_bytes({0, 1, 1}, hist_bytes(3, {})) + 'x'));
}

TEST(ArtifactCache, VarintRoundTripsAndRejectsMalformedEncodings)
{
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
          std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
          std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
        const std::string bytes = varint_bytes({v});
        util::BinaryReader r(bytes);
        EXPECT_EQ(r.get_varint(), v);
        EXPECT_TRUE(r.at_end()) << v;
    }
    EXPECT_EQ(varint_bytes({~std::uint64_t{0}}).size(), 10u);

    // An 11-byte varint: ten continuation bytes, then a terminator.
    EXPECT_TRUE(varint_fails(std::string(10, '\x80') + '\x00'));
    // A 10th byte above 1 carries bits past 64.
    EXPECT_TRUE(varint_fails(std::string(9, '\xff') + '\x02'));
    // Non-minimal: 0 and 1 padded with a zero final byte.
    EXPECT_TRUE(varint_fails(std::string("\x80\x00", 2)));
    EXPECT_TRUE(varint_fails(std::string("\x81\x80\x00", 3)));
    // Truncated: a continuation byte with nothing after it.
    EXPECT_TRUE(varint_fails("\x80"));
    EXPECT_TRUE(varint_fails(""));
}

TEST(ArtifactCache, DeserializeRejectsMalformedVarintsInASet)
{
    const std::string good = set_bytes({0, 1, 1}, hist_bytes(3, {}));
    ASSERT_TRUE(set_decodes(good));
    // The edge count (the set's first field) as an 11-byte varint and
    // as a padded one; the rest of the set follows unchanged.
    const std::string tail = good.substr(1);
    EXPECT_FALSE(set_decodes(std::string(10, '\x83') + '\x00' + tail));
    EXPECT_FALSE(set_decodes(std::string("\x83\x00", 2) + tail));
}

TEST(ArtifactCache, DeserializeRejectsBadBinEntries)
{
    auto with = [](const std::string &hist) {
        return set_decodes(set_bytes({0, 1, 1}, hist));
    };
    ASSERT_TRUE(with(hist_bytes(3, {{0, 1, 0}, {2, 2, 9}})));
    ASSERT_TRUE(with(hist_bytes(3, {{2, 1, 7}})));
    // A bin index at or past the bin count, first or later.
    EXPECT_FALSE(with(hist_bytes(3, {{3, 1, 1}})));
    EXPECT_FALSE(with(hist_bytes(3, {{1, 1, 1}, {2, 1, 1}})));
    EXPECT_FALSE(with(hist_bytes(3, {{1, 1, 1}, {~std::uint64_t{0}, 1, 1}})));
    // A zero index delta after the first entry (a repeated bin).
    EXPECT_FALSE(with(hist_bytes(3, {{1, 1, 1}, {0, 1, 1}})));
    // An encoded bin that is empty.
    EXPECT_FALSE(with(hist_bytes(3, {{1, 0, 0}})));
    // More non-empty bins than bins, and a bin-count mismatch.
    EXPECT_FALSE(with(varint_bytes({3, 4, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                    1, 1})));
    EXPECT_FALSE(with(hist_bytes(4, {{0, 1, 1}})));
}

TEST(ArtifactCache, DeserializeRejectsBadEdgeLists)
{
    const std::string empty = hist_bytes(3, {});
    ASSERT_TRUE(set_decodes(set_bytes({0, 1, 1}, empty)));
    // Does not start at 0.
    EXPECT_FALSE(set_decodes(set_bytes({5, 1, 1}, empty)));
    // A zero delta (a duplicated edge).
    EXPECT_FALSE(set_decodes(set_bytes({0, 1, 0}, empty)));
    // Wraps past 2^64.
    EXPECT_FALSE(set_decodes(set_bytes({0, 1, ~std::uint64_t{0}}, empty)));
    // No edges at all.
    EXPECT_FALSE(set_decodes(varint_bytes({0})));
}

TEST(ArtifactCache, DeserializeRejectsHugeCountsWithoutAllocating)
{
    // A count prefix far past the input, followed by nothing: the edge
    // count, the slot count, a histogram's non-empty count.
    EXPECT_FALSE(set_decodes(varint_bytes({std::uint64_t{1} << 62})));
    EXPECT_FALSE(set_decodes(varint_bytes({~std::uint64_t{0}})));
    const std::string edges = varint_bytes({3, 0, 1, 1});
    EXPECT_FALSE(set_decodes(edges + varint_bytes({std::uint64_t{1} << 62})));
    EXPECT_FALSE(set_decodes(edges + varint_bytes({9, 3, std::uint64_t{1}
                                                             << 62})));
    // The workload name's length prefix in a result.
    util::BinaryWriter w;
    w.put_u64(std::uint64_t{1} << 62);
    EXPECT_FALSE(deserialize_result(w.take()).has_value());
}

TEST(ArtifactCache, CompactResultStaysSmall)
{
    // The compact layout writes only non-empty cells; the dense one
    // cost ~120 KB for every result whatever it held.
    EXPECT_LE(serialize_result(gcc_result()).size(), 16u * 1024u);
}

// ---------------------------------------------------------------------
// Fingerprint sensitivity.
// ---------------------------------------------------------------------

TEST(ArtifactCache, FingerprintIsDeterministic)
{
    const ExperimentConfig a = small_config();
    const ExperimentConfig b = small_config();
    EXPECT_EQ(fingerprint_config(a), fingerprint_config(b));
    EXPECT_EQ(fingerprint_experiment("gzip", a),
              fingerprint_experiment("gzip", b));
}

TEST(ArtifactCache, FingerprintSensitiveToEveryField)
{
    // Every mutation below changes simulation output, so each must
    // yield a distinct key — and all of them differ from the base.
    const ExperimentConfig base = small_config();
    std::vector<std::pair<const char *, ExperimentConfig>> variants;
    auto add = [&](const char *name, auto &&mutate) {
        ExperimentConfig c = small_config();
        mutate(c);
        variants.emplace_back(name, std::move(c));
    };
    add("instructions", [](auto &c) { c.instructions += 1; });
    add("l1i.size", [](auto &c) { c.hierarchy.l1i.size_bytes *= 2; });
    add("l1d.size", [](auto &c) { c.hierarchy.l1d.size_bytes *= 2; });
    add("l2.size", [](auto &c) { c.hierarchy.l2.size_bytes *= 2; });
    add("l1d.line", [](auto &c) { c.hierarchy.l1d.line_bytes *= 2; });
    add("l1d.assoc", [](auto &c) { c.hierarchy.l1d.associativity *= 2; });
    add("l1d.latency", [](auto &c) { c.hierarchy.l1d.hit_latency += 1; });
    add("l1d.repl", [](auto &c) {
        c.hierarchy.l1d.replacement = sim::ReplacementKind::Random;
    });
    add("mem.latency", [](auto &c) { c.hierarchy.memory_latency += 10; });
    add("fetch_width", [](auto &c) { c.core.fetch_width += 1; });
    add("instr_bytes", [](auto &c) { c.core.instr_bytes *= 2; });
    add("overlap", [](auto &c) { c.core.miss_overlap_percent += 5; });
    add("stride.entries", [](auto &c) { c.stride.table_entries *= 2; });
    add("stride.confirm", [](auto &c) { c.stride.confirmations += 1; });
    add("nl_lead_time", [](auto &c) { c.nl_lead_time += 100; });
    add("collect_l2", [](auto &c) { c.collect_l2 = !c.collect_l2; });
    add("extra_edges", [](auto &c) { c.extra_edges.push_back(777'777); });

    std::vector<std::pair<std::string, std::uint64_t>> keys;
    keys.emplace_back("base", fingerprint_config(base));
    for (const auto &[name, config] : variants)
        keys.emplace_back(name, fingerprint_config(config));
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i].second, keys[j].second)
                << keys[i].first << " vs " << keys[j].first;
}

TEST(ArtifactCache, FingerprintIgnoresNonSemanticFields)
{
    // jobs, cache_dir, keep_raw and cosmetic cache names change where
    // or how results are produced, never what they contain.
    const std::uint64_t base = fingerprint_config(small_config());

    ExperimentConfig c = small_config();
    c.jobs = 7;
    EXPECT_EQ(fingerprint_config(c), base);

    c = small_config();
    c.cache_dir = "/somewhere/else";
    EXPECT_EQ(fingerprint_config(c), base);

    c = small_config();
    c.keep_raw = true;
    EXPECT_EQ(fingerprint_config(c), base);

    c = small_config();
    c.hierarchy.l1d.name = "renamed-dcache";
    EXPECT_EQ(fingerprint_config(c), base);
}

TEST(ArtifactCache, FingerprintCanonicalizesExtraEdges)
{
    // Extras are hashed through the derived sorted+deduped edge list:
    // permutations and duplicates of the same set share an entry.
    ExperimentConfig a = small_config();
    a.extra_edges = {5'000, 100, 100, 9'999};
    ExperimentConfig b = small_config();
    b.extra_edges = {9'999, 5'000, 100};
    EXPECT_EQ(fingerprint_config(a), fingerprint_config(b));
}

TEST(ArtifactCache, WorkloadNameFeedsEntryKey)
{
    const ExperimentConfig config = small_config();
    const std::uint64_t fp = fingerprint_config(config);
    EXPECT_NE(fingerprint_entry(fp, "gzip"), fingerprint_entry(fp, "gcc"));
    EXPECT_EQ(fingerprint_entry(fp, "gzip"),
              fingerprint_experiment("gzip", config));
}

// ---------------------------------------------------------------------
// Store/load and corrupt-entry recovery.
// ---------------------------------------------------------------------

TEST(ArtifactCache, StoreThenLoadIsByteIdentical)
{
    const std::string dir = fresh_cache_dir("lb_cache_roundtrip");
    ArtifactCache cache(dir);
    const std::uint64_t key = 0x1234'5678'9abc'def0ULL;
    ASSERT_TRUE(cache.store(key, sample_result()).ok());
    ASSERT_TRUE(fs::exists(cache.entry_path(key)));

    auto loaded = cache.try_load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(serialize_result(*loaded), serialize_result(sample_result()));
    // A different key misses without touching the stored entry.
    EXPECT_FALSE(cache.try_load(key + 1).has_value());
    EXPECT_TRUE(fs::exists(cache.entry_path(key)));
    fs::remove_all(dir);
}

TEST(ArtifactCache, CorruptEntriesAreDiscardedAndResimulated)
{
    const std::string dir = fresh_cache_dir("lb_cache_corrupt");
    ArtifactCache cache(dir);
    const std::uint64_t key = 42;
    ASSERT_TRUE(cache.store(key, sample_result()).ok());

    std::string bytes;
    {
        std::ifstream in(cache.entry_path(key), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    ASSERT_GT(bytes.size(), 100u);

    // Flip one byte at a spread of offsets: header (magic, version,
    // key, size), payload body, and the trailing checksum.  Every
    // mutation must be detected, the entry removed, and a subsequent
    // probe must miss cleanly.
    const std::size_t offsets[] = {0,  5,  8,  11, 12, 19,
                                   20, 27, 40, bytes.size() / 2,
                                   bytes.size() - 1};
    for (const std::size_t off : offsets) {
        std::string mangled = bytes;
        mangled[off] = static_cast<char>(mangled[off] ^ 0x5a);
        {
            std::ofstream out(cache.entry_path(key), std::ios::binary);
            out << mangled;
        }
        EXPECT_FALSE(cache.try_load(key).has_value()) << "offset " << off;
        EXPECT_FALSE(fs::exists(cache.entry_path(key)))
            << "offset " << off << " entry not discarded";
    }

    // Truncations (including an empty file) are likewise rejected.
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{7}, std::size_t{20},
          bytes.size() / 3, bytes.size() - 1}) {
        {
            std::ofstream out(cache.entry_path(key), std::ios::binary);
            out << bytes.substr(0, len);
        }
        EXPECT_FALSE(cache.try_load(key).has_value()) << "length " << len;
    }

    // After a discard, load_or_run transparently re-simulates, stores
    // a good entry, and returns the correct result.
    {
        std::ofstream out(cache.entry_path(key), std::ios::binary);
        out << bytes.substr(0, bytes.size() / 2);
    }
    const ExperimentResult rerun =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    EXPECT_FALSE(rerun.from_cache);
    EXPECT_EQ(serialize_result(rerun), serialize_result(sample_result()));
    auto reloaded = cache.try_load(key);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(serialize_result(*reloaded),
              serialize_result(sample_result()));
    // Every rejected mutation was counted, and none of them demoted
    // the cache — corruption is recoverable, not degrading.
    EXPECT_GE(cache.health().corrupt_entries, 11u);
    EXPECT_FALSE(cache.degraded());
    fs::remove_all(dir);
}

TEST(ArtifactCache, LoadOrRunMissSimulatesHitLoads)
{
    const std::string dir = fresh_cache_dir("lb_cache_loadorrun");
    ArtifactCache cache(dir);
    const std::uint64_t key = fingerprint_experiment("gzip", small_config());

    int simulations = 0;
    auto simulate = [&simulations]() {
        ++simulations;
        return sample_result();
    };
    const ExperimentResult cold = cache.load_or_run(key, "gzip", simulate);
    EXPECT_EQ(simulations, 1);
    EXPECT_FALSE(cold.from_cache);

    const ExperimentResult warm = cache.load_or_run(key, "gzip", simulate);
    EXPECT_EQ(simulations, 1) << "hit must not simulate";
    EXPECT_TRUE(warm.from_cache);
    EXPECT_EQ(serialize_result(warm), serialize_result(cold));
    // The lock is released either way.
    EXPECT_FALSE(fs::exists(cache.entry_path(key) + ".lock"));
    fs::remove_all(dir);
}

TEST(ArtifactCache, StaleLockIsBroken)
{
    const std::string dir = fresh_cache_dir("lb_cache_stale");
    ArtifactCache::LockOptions options;
    options.wait_timeout = std::chrono::milliseconds(2'000);
    options.stale_age = std::chrono::milliseconds(0); // everything stale
    ArtifactCache cache(dir, options);
    const std::uint64_t key = 7;

    fs::create_directories(dir);
    { std::ofstream lock(cache.entry_path(key) + ".lock"); }
    const ExperimentResult result =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    EXPECT_FALSE(result.from_cache);
    // The dead writer's lock was broken, the entry published, ours
    // released.
    EXPECT_TRUE(fs::exists(cache.entry_path(key)));
    EXPECT_FALSE(fs::exists(cache.entry_path(key) + ".lock"));
    EXPECT_GE(cache.health().lock_breaks, 1u);
    EXPECT_EQ(cache.health().lock_timeouts, 0u);
    fs::remove_all(dir);
}

TEST(ArtifactCache, LockHeldBySigkilledProcessIsBrokenAndCounted)
{
    // The crash-hygiene case behind the shard fleet: a shard that
    // acquired an entry lock and was then SIGKILLed leaves its `.lock`
    // behind with no process to release it.  Survivors must break the
    // stale lock (counted — CacheHealth::lock_breaks feeds the
    // daemon's /stats `locks_broken`), simulate, publish, and release,
    // with zero degradation.
    const std::string dir = fresh_cache_dir("lb_cache_sigkill");
    fs::create_directories(dir);
    ArtifactCache::LockOptions options;
    options.wait_timeout = std::chrono::milliseconds(10'000);
    options.stale_age = std::chrono::milliseconds(100);
    ArtifactCache cache(dir, options);
    const std::uint64_t key = 11;
    const std::string lock = cache.entry_path(key) + ".lock";

    // The doomed writer takes the lock exactly as a real one would
    // (O_CREAT | O_EXCL), then parks until killed.  Only
    // async-signal-safe calls after fork().
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const int fd =
            ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd < 0)
            ::_exit(3);
        for (;;)
            ::pause();
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!fs::exists(lock) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(fs::exists(lock)) << "lock holder never started";
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);

    // Age the orphaned lock past stale_age, then miss into it.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const ExperimentResult result =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    EXPECT_FALSE(result.from_cache);
    EXPECT_EQ(serialize_result(result),
              serialize_result(sample_result()));
    EXPECT_TRUE(fs::exists(cache.entry_path(key)))
        << "recovery must still publish the entry";
    EXPECT_FALSE(fs::exists(lock));
    EXPECT_GE(cache.health().lock_breaks, 1u);
    EXPECT_EQ(cache.health().lock_timeouts, 0u);
    EXPECT_FALSE(cache.degraded());
    fs::remove_all(dir);
}

TEST(ArtifactCache, HeldLockTimesOutWithoutStoring)
{
    const std::string dir = fresh_cache_dir("lb_cache_held");
    ArtifactCache::LockOptions options;
    options.wait_timeout = std::chrono::milliseconds(50);
    options.stale_age = std::chrono::hours(1); // never stale
    ArtifactCache cache(dir, options);
    const std::uint64_t key = 9;

    fs::create_directories(dir);
    { std::ofstream lock(cache.entry_path(key) + ".lock"); }
    const ExperimentResult result =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    // Correct result anyway, but nothing published and the foreign
    // lock left alone.
    EXPECT_FALSE(result.from_cache);
    EXPECT_EQ(serialize_result(result), serialize_result(sample_result()));
    EXPECT_FALSE(fs::exists(cache.entry_path(key)));
    EXPECT_TRUE(fs::exists(cache.entry_path(key) + ".lock"));
    // The wait was counted (with its retries) but did not demote the
    // cache: lock contention is per-entry, not a dead backing store.
    EXPECT_EQ(cache.health().lock_timeouts, 1u);
    EXPECT_GE(cache.health().lock_retries, 1u);
    EXPECT_FALSE(cache.degraded());
    fs::remove_all(dir);
}

namespace {

std::string
this_host()
{
    char buf[256] = {};
    EXPECT_EQ(::gethostname(buf, sizeof(buf) - 1), 0);
    return buf;
}

/** Write a lock file naming @p pid on @p host, as try_lock does. */
void
write_lock(const std::string &path, long pid, const std::string &host)
{
    std::ofstream lock(path);
    lock << pid << ' ' << host << '\n';
}

} // namespace

TEST(ArtifactCache, DeadHoldersLockIsBrokenAtOnce)
{
    // A holder that exited without releasing its lock, on this host:
    // with the default lock options a waiter must not sit out the
    // timeout, it breaks the lock and simulates and stores at once.
    const std::string dir = fresh_cache_dir("lb_cache_dead_holder");
    fs::create_directories(dir);
    ArtifactCache cache(dir);
    const std::uint64_t key = 13;
    const std::string lock = cache.entry_path(key) + ".lock";

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);
    write_lock(lock, pid, this_host());

    std::string held_record;
    const auto begun = std::chrono::steady_clock::now();
    const ExperimentResult result = cache.load_or_run(key, "gzip", [&] {
        std::ifstream in(lock);
        std::getline(in, held_record);
        return sample_result();
    });
    const auto took = std::chrono::steady_clock::now() - begun;
    EXPECT_LT(took, std::chrono::milliseconds(1'000));
    EXPECT_FALSE(result.from_cache);
    EXPECT_TRUE(fs::exists(cache.entry_path(key)));
    EXPECT_FALSE(fs::exists(lock));
    EXPECT_EQ(cache.health().lock_breaks, 1u);
    EXPECT_EQ(cache.health().lock_timeouts, 0u);
    // The lock this process took names it and this host.
    EXPECT_EQ(held_record,
              std::to_string(::getpid()) + " " + this_host());
    fs::remove_all(dir);
}

TEST(ArtifactCache, LiveOrForeignHoldersLockIsWaitedOn)
{
    // A live holder on this host, and any holder on another host, is
    // waited on: the lock is neither broken nor published over.
    const std::string dir = fresh_cache_dir("lb_cache_live_holder");
    fs::create_directories(dir);
    ArtifactCache::LockOptions options;
    options.wait_timeout = std::chrono::milliseconds(100);
    options.stale_age = std::chrono::hours(1);
    ArtifactCache cache(dir, options);
    const std::uint64_t key = 17;
    const std::string lock = cache.entry_path(key) + ".lock";

    write_lock(lock, ::getpid(), this_host());
    (void)cache.load_or_run(key, "gzip", [] { return sample_result(); });
    write_lock(lock, 999'999'999, this_host() + ".elsewhere");
    (void)cache.load_or_run(key, "gzip", [] { return sample_result(); });

    EXPECT_EQ(cache.health().lock_breaks, 0u);
    EXPECT_EQ(cache.health().lock_timeouts, 2u);
    EXPECT_TRUE(fs::exists(lock));
    EXPECT_FALSE(fs::exists(cache.entry_path(key)));
    fs::remove_all(dir);
}

TEST(ArtifactCache, DefaultStaleAgeIsNoLongerThanTheWait)
{
    const ArtifactCache::LockOptions options;
    EXPECT_LE(options.stale_age, options.wait_timeout);
}

TEST(ArtifactCache, CarriedBytesAreTheVerifiedPayload)
{
    // A stored and a loaded result both carry serialize_result's bytes
    // and their checksum, so a renderer never has to serialize or hash
    // them again.
    const std::string dir = fresh_cache_dir("lb_cache_carried");
    ArtifactCache cache(dir);
    const std::uint64_t key = 19;
    const std::string expected = serialize_result(sample_result());
    const std::uint64_t expected_fnv =
        util::fnv1a(expected.data(), expected.size());

    const ExperimentResult cold =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    ASSERT_NE(cold.serialized, nullptr);
    EXPECT_EQ(cold.serialized->bytes, expected);
    EXPECT_EQ(cold.serialized->fnv, expected_fnv);
    const ExperimentResult warm =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    ASSERT_TRUE(warm.from_cache);
    ASSERT_NE(warm.serialized, nullptr);
    EXPECT_EQ(warm.serialized->bytes, expected);
    EXPECT_EQ(warm.serialized->fnv, expected_fnv);
    auto probed = cache.try_load(key);
    ASSERT_TRUE(probed.has_value());
    ASSERT_NE(probed->serialized, nullptr);
    EXPECT_EQ(probed->serialized->bytes, expected);
    EXPECT_EQ(probed->serialized->fnv, expected_fnv);
    fs::remove_all(dir);
}

TEST(ArtifactCache, UnwritableDirectoryDegradesToSimulation)
{
    // Point the cache at a path that can never become a directory (a
    // regular file occupies it).  The first load_or_run demotes the
    // cache with a warning and every job simulates without caching —
    // results stay correct, no exception escapes.
    const std::string blocker =
        ::testing::TempDir() + "lb_cache_blocker_file";
    fs::remove_all(blocker);
    { std::ofstream out(blocker); out << "not a directory"; }

    ArtifactCache cache(blocker + "/nested");
    int simulations = 0;
    for (int i = 0; i < 3; ++i) {
        const ExperimentResult r =
            cache.load_or_run(7 + i, "gzip", [&simulations] {
                ++simulations;
                return sample_result();
            });
        EXPECT_FALSE(r.from_cache);
        EXPECT_EQ(serialize_result(r), serialize_result(sample_result()));
    }
    EXPECT_EQ(simulations, 3);
    EXPECT_TRUE(cache.degraded());
    EXPECT_EQ(cache.health().degraded_jobs, 3u)
        << "the demoting job and both after it ran uncached";
    fs::remove_all(blocker);
}

// ---------------------------------------------------------------------
// run_suite integration: cold vs warm byte-identity.
// ---------------------------------------------------------------------

TEST(ArtifactCache, WarmSuiteIsByteIdenticalToCold)
{
    const std::string dir = fresh_cache_dir("lb_cache_suite");
    const std::vector<std::string> names = {"gzip", "ammp"};

    ExperimentConfig uncached = small_config();
    const auto reference = run_suite(names, uncached);

    ExperimentConfig cached = small_config();
    cached.cache_dir = dir;
    const auto cold = run_suite(names, cached);
    const auto warm = run_suite(names, cached);

    // Warm results load; and every variant — uncached, cold, warm —
    // serializes to exactly the same bytes per benchmark.
    ASSERT_EQ(cold.size(), names.size());
    ASSERT_EQ(warm.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_FALSE(cold[i].from_cache) << names[i];
        EXPECT_TRUE(warm[i].from_cache) << names[i];
        const std::string want = serialize_result(reference[i]);
        EXPECT_EQ(serialize_result(cold[i]), want) << names[i];
        EXPECT_EQ(serialize_result(warm[i]), want) << names[i];
    }

    // The parallel path loads the same bytes too.
    ExperimentConfig parallel = cached;
    parallel.jobs = 2;
    const auto warm_parallel = run_suite(names, parallel);
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_TRUE(warm_parallel[i].from_cache) << names[i];
        EXPECT_EQ(serialize_result(warm_parallel[i]),
                  serialize_result(reference[i]))
            << names[i];
    }
    fs::remove_all(dir);
}

TEST(ArtifactCache, WarmSuiteBuildsNoWorkload)
{
    // A hit is a probe and a load: the workload is built (and the
    // "simulating" line logged right after it) only on a miss, on the
    // serial and the pooled path alike.
    const std::string dir = fresh_cache_dir("lb_cache_warm_log");
    const std::vector<std::string> &names = workload::suite_names();
    ExperimentConfig config = small_config();
    config.cache_dir = dir;
    ASSERT_TRUE(run_suite_isolated(names, config).failures.empty());

    const util::Verbosity saved = util::verbosity();
    util::set_verbosity(util::Verbosity::Normal);
    for (unsigned jobs : {1u, 4u}) {
        config.jobs = jobs;
        ::testing::internal::CaptureStderr();
        SuiteOutcome warm = run_suite_isolated(names, config);
        const std::string log = ::testing::internal::GetCapturedStderr();
        ASSERT_TRUE(warm.failures.empty()) << "jobs=" << jobs;
        for (const auto &slot : warm.slots)
            EXPECT_TRUE(slot && slot->from_cache) << "jobs=" << jobs;
        std::size_t hits = 0;
        for (std::size_t at = log.find("cache hit for ");
             at != std::string::npos; at = log.find("cache hit for ", at + 1))
            ++hits;
        EXPECT_EQ(hits, names.size()) << "jobs=" << jobs << "\n" << log;
        EXPECT_EQ(log.find("simulating"), std::string::npos)
            << "jobs=" << jobs << "\n" << log;
    }
    util::set_verbosity(saved);
    fs::remove_all(dir);
}

TEST(ArtifactCache, UnknownNameDiesBeforeTouchingTheCache)
{
    // The serial path validates every name before any cache I/O: an
    // unknown benchmark exits with the user-error status and leaves
    // neither an entry nor a stale .lock behind.
    const std::string dir = fresh_cache_dir("lb_cache_unknown_name");
    ExperimentConfig config = small_config();
    config.cache_dir = dir;
    config.jobs = 1;
    EXPECT_EXIT((void)run_suite_isolated({"gzip", "perlbmk"}, config),
                ::testing::ExitedWithCode(2),
                "unknown benchmark 'perlbmk'");
    EXPECT_EXIT((void)run_suite_isolated({"perlbmk"}, config),
                ::testing::ExitedWithCode(2),
                "unknown benchmark 'perlbmk'");
    if (fs::exists(dir)) {
        for (const auto &entry : fs::directory_iterator(dir))
            EXPECT_NE(entry.path().extension(), ".lock") << entry.path();
    }
    EXPECT_FALSE(fs::exists(dir)) << "nothing ran before the name check";
    fs::remove_all(dir);
}

TEST(ArtifactCache, KeepRawRunsBypassTheCache)
{
    const std::string dir = fresh_cache_dir("lb_cache_keepraw");
    ExperimentConfig config = small_config();
    config.cache_dir = dir;
    config.keep_raw = true;
    const auto first = run_suite({"gzip"}, config);
    const auto second = run_suite({"gzip"}, config);
    // Raw intervals are never persisted: both runs simulate, both keep
    // their raw vectors, and no cache directory ever appears.
    EXPECT_FALSE(first[0].from_cache);
    EXPECT_FALSE(second[0].from_cache);
    EXPECT_FALSE(first[0].dcache.raw.empty());
    EXPECT_FALSE(second[0].dcache.raw.empty());
    EXPECT_FALSE(fs::exists(dir));
}

TEST(ArtifactCache, ResolveCacheDirPrecedence)
{
    ::unsetenv("LEAKBOUND_CACHE_DIR");
    EXPECT_EQ(resolve_cache_dir(""), "");
    EXPECT_EQ(resolve_cache_dir("/flag/dir"), "/flag/dir");
    ::setenv("LEAKBOUND_CACHE_DIR", "/env/dir", 1);
    EXPECT_EQ(resolve_cache_dir(""), "/env/dir");
    EXPECT_EQ(resolve_cache_dir("/flag/dir"), "/flag/dir");
    ::unsetenv("LEAKBOUND_CACHE_DIR");
}
