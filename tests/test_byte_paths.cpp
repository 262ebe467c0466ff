/**
 * @file
 * Differential tests of the byte paths a served result takes: the JSON
 * writer against its original ostringstream implementation
 * (reference_json_writer.hpp) over seeded random documents, the hex
 * payload value through hex_decode, the varint decoder's bounds-once
 * fast path against a byte-at-a-time reference at every offset near a
 * buffer's end, and the decoder's reuse of the standard edge index.
 *
 * Carries the `bytes` CTest label, so the debug preset runs it with
 * assertions on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "interval/interval_histogram.hpp"
#include "reference_json_writer.hpp"
#include "serve/protocol.hpp"
#include "util/binary_io.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

using namespace leakbound;

namespace {

/** Both writers, driven by the same calls. */
struct Writers
{
    util::JsonWriter lib;
    oracle::ReferenceJsonWriter ref;
};

/**
 * A string over the bytes that stress escaping: quotes, backslashes,
 * every control byte, DEL, high bytes and plain ASCII; often empty.
 */
std::string
random_text(util::Rng &rng)
{
    std::string s;
    const std::uint64_t n = rng.next_below(4) == 0 ? 0 : rng.next_below(24);
    for (std::uint64_t i = 0; i < n; ++i) {
        switch (rng.next_below(6)) {
          case 0: s += '"'; break;
          case 1: s += '\\'; break;
          case 2: s += static_cast<char>(rng.next_below(0x20)); break;
          case 3: s += static_cast<char>(0x7f + rng.next_below(0x81)); break;
          default: s += static_cast<char>('a' + rng.next_below(26)); break;
        }
    }
    return s;
}

std::uint64_t
random_u64(util::Rng &rng)
{
    switch (rng.next_below(4)) {
      case 0: return 0;
      case 1: return std::numeric_limits<std::uint64_t>::max();
      case 2: return rng.next_below(1000);
      default: return rng.next_u64();
    }
}

std::int64_t
random_i64(util::Rng &rng)
{
    switch (rng.next_below(5)) {
      case 0: return std::numeric_limits<std::int64_t>::min();
      case 1: return std::numeric_limits<std::int64_t>::max();
      case 2: return -1;
      case 3: return 0;
      default: return static_cast<std::int64_t>(rng.next_u64());
    }
}

void write_random_value(Writers &w, util::Rng &rng, int depth);

void
write_random_container(Writers &w, util::Rng &rng, int depth)
{
    const std::uint64_t n = rng.next_below(5);
    if (rng.next_below(2) == 0) {
        w.lib.begin_object();
        w.ref.begin_object();
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::string key = random_text(rng);
            w.lib.key(key);
            w.ref.key(key);
            write_random_value(w, rng, depth + 1);
        }
        w.lib.end_object();
        w.ref.end_object();
    } else {
        w.lib.begin_array();
        w.ref.begin_array();
        for (std::uint64_t i = 0; i < n; ++i)
            write_random_value(w, rng, depth + 1);
        w.lib.end_array();
        w.ref.end_array();
    }
}

void
write_random_value(Writers &w, util::Rng &rng, int depth)
{
    switch (rng.next_below(depth < 4 ? 10 : 8)) {
      case 0: {
        const std::string v = random_text(rng);
        w.lib.value(v);
        w.ref.value(v);
        break;
      }
      case 1: {
        const std::uint64_t v = random_u64(rng);
        w.lib.value(v);
        w.ref.value(v);
        break;
      }
      case 2: {
        const std::int64_t v = random_i64(rng);
        w.lib.value(v);
        w.ref.value(v);
        break;
      }
      case 3: {
        const double v = static_cast<double>(random_i64(rng)) /
                         static_cast<double>(1 + rng.next_below(1000));
        w.lib.value(v);
        w.ref.value(v);
        break;
      }
      case 4: {
        const bool v = rng.next_below(2) == 0;
        w.lib.value(v);
        w.ref.value(v);
        break;
      }
      case 5:
        w.lib.null();
        w.ref.null();
        break;
      case 6: {
        std::vector<std::string> v(rng.next_below(4));
        for (std::string &s : v)
            s = random_text(rng);
        w.lib.value(v);
        w.ref.value(v);
        break;
      }
      case 7: {
        const std::string v = random_text(rng);
        w.lib.hex_value(v);
        w.ref.hex_value(v);
        break;
      }
      default: write_random_container(w, rng, depth); break;
    }
}

/** What one varint read produced. */
struct VarintRead
{
    std::uint64_t value = 0;
    bool failed = false;
    std::size_t remaining = 0;

    bool operator==(const VarintRead &) const = default;
};

/**
 * The decoder's rules one bounds-checked byte at a time: fail on
 * truncation (consuming everything), on a 10th byte above 1 and on a
 * zero final byte after the first, consuming up to the offending byte.
 */
VarintRead
reference_varint(std::string_view bytes)
{
    std::uint64_t v = 0;
    std::size_t pos = 0;
    for (int i = 0;; ++i) {
        if (pos == bytes.size())
            return {0, true, 0};
        const auto byte = static_cast<std::uint8_t>(bytes[pos++]);
        if ((i == 9 && byte > 1) || (i > 0 && byte == 0))
            return {0, true, bytes.size() - pos};
        v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
        if ((byte & 0x80) == 0)
            return {v, false, bytes.size() - pos};
    }
}

VarintRead
library_varint(util::BinaryReader &r)
{
    VarintRead out;
    out.value = r.get_varint();
    out.failed = r.failed();
    out.remaining = r.remaining();
    return out;
}

/** Valid and malformed varints back to back, plus stray bytes. */
std::string
random_varint_stream(util::Rng &rng)
{
    std::string s;
    const std::uint64_t pieces = 1 + rng.next_below(5);
    for (std::uint64_t k = 0; k < pieces; ++k) {
        switch (rng.next_below(6)) {
          case 0:
          case 1: {
            // A valid encoding of a value of random bit width.
            const unsigned bits = static_cast<unsigned>(rng.next_below(65));
            const std::uint64_t v =
                bits == 0 ? 0 : rng.next_u64() >> (64 - bits);
            util::BinaryWriter w;
            w.put_varint(v);
            s += w.bytes();
            break;
          }
          case 2: // an 11-byte varint
            s += std::string(10, '\x80') + '\x01';
            break;
          case 3: // a 10th byte above 1
            s += std::string(9, '\xff') +
                 static_cast<char>(2 + rng.next_below(254));
            break;
          case 4: // a padded (non-minimal) encoding
            s += std::string(1 + rng.next_below(8), '\x80') + '\x00';
            break;
          default:
            for (std::uint64_t i = rng.next_below(4); i > 0; --i)
                s += static_cast<char>(rng.next_u64());
            break;
        }
    }
    return s;
}

} // namespace

TEST(JsonWriterDiff, RandomDocumentsMatchTheReference)
{
    util::Rng rng(0x15a0f);
    for (int doc = 0; doc < 2000; ++doc) {
        Writers w;
        write_random_container(w, rng, 0);
        const std::string expected = w.ref.str();
        ASSERT_EQ(w.lib.str(), expected) << "document " << doc;
        ASSERT_EQ(w.lib.take(), expected) << "document " << doc;
    }
}

TEST(JsonWriterDiff, EveryByteEscapesLikeTheReference)
{
    std::string all;
    for (int b = 0; b < 256; ++b)
        all += static_cast<char>(b);
    EXPECT_EQ(util::json_escape(all), oracle::reference_json_escape(all));
    for (int b = 0; b < 256; ++b) {
        const std::string one(1, static_cast<char>(b));
        const std::string framed = "ab" + one + "cd" + one;
        EXPECT_EQ(util::json_escape(one), oracle::reference_json_escape(one))
            << "byte " << b;
        EXPECT_EQ(util::json_escape(framed),
                  oracle::reference_json_escape(framed))
            << "byte " << b;
    }
    EXPECT_EQ(util::json_escape(""), "");
}

TEST(HexValue, RoundTripsThroughHexDecode)
{
    util::Rng rng(0x4e7);
    std::vector<std::size_t> sizes = {0, 1, 2, 3, 255, 256, 11'000};
    for (std::size_t n = 4; n < 64; ++n)
        sizes.push_back(n);
    for (const std::size_t n : sizes) {
        std::string bytes(n, '\0');
        for (char &c : bytes)
            c = static_cast<char>(rng.next_u64());
        util::JsonWriter w;
        w.hex_value(bytes);
        const std::string doc = w.take();
        ASSERT_EQ(doc, '"' + oracle::reference_hex(bytes) + '"')
            << n << " bytes";
        auto parsed = util::json_parse(doc);
        ASSERT_TRUE(parsed.has_value()) << n << " bytes";
        auto decoded = serve::hex_decode(parsed.value().string_value());
        ASSERT_TRUE(decoded.has_value()) << n << " bytes";
        EXPECT_EQ(decoded.value(), bytes) << n << " bytes";
    }
}

TEST(VarintFastPath, MatchesByteAtATimeReferenceAtEveryOffset)
{
    // Buffers of up to ~60 bytes, read from every start offset: the
    // reads more than 10 bytes from the end take the fast path, the
    // last 10 offsets the bounds-checked one.  A second read after the
    // first checks that both leave the reader where the reference does.
    util::Rng rng(0xa1b2);
    for (int trial = 0; trial < 3000; ++trial) {
        const std::string buf = random_varint_stream(rng);
        for (std::size_t k = 0; k <= buf.size(); ++k) {
            const std::string_view tail(buf.data() + k, buf.size() - k);
            util::BinaryReader r(tail.data(), tail.size());
            const VarintRead first = reference_varint(tail);
            ASSERT_EQ(library_varint(r), first)
                << "trial " << trial << " offset " << k << " of "
                << buf.size();
            if (first.failed)
                continue;
            const VarintRead second = reference_varint(
                tail.substr(tail.size() - first.remaining));
            ASSERT_EQ(library_varint(r), second)
                << "trial " << trial << " offset " << k << " (second read)";
        }
    }
}

TEST(VarintFastPath, FailedReaderStaysFailed)
{
    // A reader that already failed returns zero without moving, on the
    // fast path's input size too.
    const std::string buf = std::string("\x80\x00", 2) + std::string(16, 1);
    util::BinaryReader r(buf.data(), buf.size());
    EXPECT_EQ(r.get_varint(), 0u);
    ASSERT_TRUE(r.failed());
    const std::size_t left = r.remaining();
    EXPECT_EQ(r.get_varint(), 0u);
    EXPECT_EQ(r.remaining(), left);
}

TEST(DecodeOnce, DecodeAfterEveryResultIsGoneReusesTheStandardIndex)
{
    core::ExperimentConfig config;
    config.instructions = 20'000;
    config.extra_edges = core::standard_extra_edges();
    std::string bytes;
    {
        const auto results = core::run_suite({"gzip"}, config);
        bytes = core::serialize_result(results.front());
    }
    // Only a weak reference here: the default-index memo alone keeps
    // the index alive once no result holds it.
    const std::weak_ptr<const util::EdgeIndex> standard =
        interval::IntervalHistogramSet::default_index(config.extra_edges);
    for (int round = 0; round < 2; ++round) {
        const auto decoded = core::deserialize_result(bytes);
        ASSERT_TRUE(decoded.has_value());
        const auto index = standard.lock();
        ASSERT_NE(index, nullptr) << "round " << round;
        EXPECT_EQ(&decoded->icache.intervals.edges(), &index->edges())
            << "round " << round;
        EXPECT_EQ(&decoded->dcache.intervals.edges(), &index->edges())
            << "round " << round;
    }
}
