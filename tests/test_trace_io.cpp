/**
 * @file
 * Tests of binary trace IO: round-tripping, magic validation, and
 * error handling for missing/corrupt files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "trace/trace_io.hpp"
#include "util/random.hpp"
#include "util/status.hpp"

using namespace leakbound;
using namespace leakbound::trace;

namespace {

std::string
temp_path(const char *name)
{
    return ::testing::TempDir() + name;
}

} // namespace

TEST(TraceIo, RoundTripsRecords)
{
    const std::string path = temp_path("lb_trace_roundtrip.bin");
    util::Rng rng(4);
    std::vector<TimedAccess> expected;
    {
        TraceWriter w(path);
        for (int i = 0; i < 1000; ++i) {
            TimedAccess rec;
            rec.cycle = i * 3;
            rec.pc = 0x400000 + rng.next_below(1 << 20);
            rec.addr = rng.next_u64() >> 16;
            rec.kind = static_cast<InstrKind>(rng.next_below(3));
            w.write(rec);
            expected.push_back(rec);
        }
        EXPECT_EQ(w.count(), 1000u);
    }
    TraceReader r(path);
    TimedAccess rec;
    for (const TimedAccess &want : expected) {
        ASSERT_TRUE(r.next(rec));
        EXPECT_EQ(rec.cycle, want.cycle);
        EXPECT_EQ(rec.pc, want.pc);
        EXPECT_EQ(rec.addr, want.addr);
        EXPECT_EQ(rec.kind, want.kind);
    }
    EXPECT_FALSE(r.next(rec));
    EXPECT_EQ(r.count(), 1000u);
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceReadsNothing)
{
    const std::string path = temp_path("lb_trace_empty.bin");
    { TraceWriter w(path); }
    TraceReader r(path);
    TimedAccess rec;
    EXPECT_FALSE(r.next(rec));
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsTypedNotFound)
{
    TraceReader reader("/nonexistent/path/trace.bin");
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().kind(), util::ErrorKind::NotFound);
    EXPECT_NE(reader.status().message().find("no such trace file"),
              std::string::npos);
    TimedAccess rec;
    EXPECT_FALSE(reader.next(rec));
}

TEST(TraceIo, BadMagicIsTypedCorruptData)
{
    const std::string path = temp_path("lb_trace_bad.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file at all";
    }
    TraceReader reader(path);
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().kind(), util::ErrorKind::CorruptData);
    EXPECT_NE(reader.status().message().find("not a leakbound trace"),
              std::string::npos);
    TimedAccess rec;
    EXPECT_FALSE(reader.next(rec));
    std::remove(path.c_str());
}

TEST(TraceIo, UnwritablePathIsTypedIoError)
{
    TraceWriter writer("/nonexistent/dir/trace.bin");
    EXPECT_FALSE(writer.ok());
    EXPECT_EQ(writer.status().kind(), util::ErrorKind::IoError);
    EXPECT_NE(writer.status().message().find("cannot create"),
              std::string::npos);
    // Writes to a dead writer are swallowed, and flush reports the
    // original latched status instead of inventing a new one.
    writer.write(TimedAccess{});
    EXPECT_EQ(writer.count(), 0u);
    EXPECT_EQ(writer.flush().kind(), util::ErrorKind::IoError);
}

namespace {

/**
 * Draw one fuzzed record: mostly uniform-random fields, with the edge
 * values the on-disk format must not mangle (0, the maximum cycle,
 * kInvalidAddr) oversampled.
 */
TimedAccess
fuzz_record(util::Rng &rng)
{
    auto fuzz_u64 = [&rng]() -> std::uint64_t {
        switch (rng.next_below(8)) {
          case 0: return 0;
          case 1: return ~static_cast<std::uint64_t>(0); // max / invalid
          case 2: return 1;
          default: return rng.next_u64();
        }
    };
    TimedAccess rec;
    rec.cycle = fuzz_u64();
    rec.pc = fuzz_u64();
    rec.addr = fuzz_u64();
    rec.kind = static_cast<InstrKind>(rng.next_below(3));
    return rec;
}

} // namespace

TEST(TraceIo, FuzzedStreamsRoundTripExactly)
{
    // Seeded fuzz over many independent streams: every record —
    // including edge values and runs of duplicates — must survive
    // write -> read -> compare bit-exactly.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const std::string path = temp_path("lb_trace_fuzz.bin");
        util::Rng rng(seed * 0x9e37'79b9);
        std::vector<TimedAccess> expected;
        const std::size_t n = 200 + rng.next_below(1800);
        {
            TraceWriter w(path);
            for (std::size_t i = 0; i < n; ++i) {
                TimedAccess rec;
                if (!expected.empty() && rng.next_bool(0.15))
                    rec = expected.back(); // duplicate frames/records
                else
                    rec = fuzz_record(rng);
                w.write(rec);
                expected.push_back(rec);
            }
            EXPECT_EQ(w.count(), n);
        }

        TraceReader r(path);
        TimedAccess rec;
        for (std::size_t i = 0; i < expected.size(); ++i) {
            ASSERT_TRUE(r.next(rec)) << "seed " << seed << " record " << i;
            EXPECT_EQ(rec.cycle, expected[i].cycle) << "seed " << seed;
            EXPECT_EQ(rec.pc, expected[i].pc) << "seed " << seed;
            EXPECT_EQ(rec.addr, expected[i].addr) << "seed " << seed;
            EXPECT_EQ(rec.kind, expected[i].kind) << "seed " << seed;
        }
        EXPECT_FALSE(r.next(rec));
        EXPECT_EQ(r.count(), n);
        std::remove(path.c_str());
    }
}

TEST(TraceIo, BlockBoundaryCountsRoundTrip)
{
    // The block-buffered IO path has its interesting states exactly
    // around multiples of kBlockRecords: empty buffer, one record, a
    // partially filled block, an exactly full block (flush with no
    // remainder), one spill-over record, and several blocks plus a
    // tail.  Each count must round-trip bit-exactly and then hit EOF.
    const std::size_t counts[] = {0,
                                  1,
                                  kBlockRecords - 1,
                                  kBlockRecords,
                                  kBlockRecords + 1,
                                  2 * kBlockRecords + 3};
    for (const std::size_t n : counts) {
        const std::string path = temp_path("lb_trace_block.bin");
        util::Rng rng(0xb10cULL ^ n);
        std::vector<TimedAccess> expected;
        {
            TraceWriter w(path);
            for (std::size_t i = 0; i < n; ++i) {
                const TimedAccess rec = fuzz_record(rng);
                w.write(rec);
                expected.push_back(rec);
            }
            EXPECT_EQ(w.count(), n);
        }
        TraceReader r(path);
        TimedAccess rec;
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(r.next(rec)) << "count " << n << " record " << i;
            EXPECT_EQ(rec.cycle, expected[i].cycle) << "count " << n;
            EXPECT_EQ(rec.pc, expected[i].pc) << "count " << n;
            EXPECT_EQ(rec.addr, expected[i].addr) << "count " << n;
            EXPECT_EQ(rec.kind, expected[i].kind) << "count " << n;
        }
        EXPECT_FALSE(r.next(rec)) << "count " << n;
        EXPECT_EQ(r.count(), n);
        std::remove(path.c_str());
    }
}

TEST(TraceIo, MidStreamFlushKeepsFormatIdentical)
{
    // Explicit flushes between records must not change the byte stream:
    // a file written with flushes after every record equals one written
    // with pure block buffering.
    const std::string path_a = temp_path("lb_trace_flush_a.bin");
    const std::string path_b = temp_path("lb_trace_flush_b.bin");
    util::Rng rng(0xf105ULL);
    std::vector<TimedAccess> records;
    for (int i = 0; i < 300; ++i)
        records.push_back(fuzz_record(rng));
    {
        TraceWriter a(path_a);
        TraceWriter b(path_b);
        for (const TimedAccess &rec : records) {
            a.write(rec);
            ASSERT_TRUE(a.flush().ok());
            b.write(rec);
        }
    }
    std::ifstream fa(path_a, std::ios::binary);
    std::ifstream fb(path_b, std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b);
    EXPECT_EQ(bytes_a.size(),
              sizeof(kTraceMagic) + records.size() * kTraceRecordBytes);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(TraceIo, TruncatedTrailingRecordReadsAsEof)
{
    // A file cut mid-record (e.g. a crashed writer) yields exactly the
    // complete records and then EOF — matching the historical
    // record-at-a-time behaviour the block reader replaced.
    const std::string path = temp_path("lb_trace_trunc.bin");
    util::Rng rng(0x7777);
    std::vector<TimedAccess> records;
    for (std::size_t i = 0; i < kBlockRecords + 10; ++i)
        records.push_back(fuzz_record(rng));
    {
        TraceWriter w(path);
        for (const TimedAccess &rec : records)
            w.write(rec);
    }
    // Chop 7 bytes off the final record.
    const std::size_t full =
        sizeof(kTraceMagic) + records.size() * kTraceRecordBytes;
    ASSERT_EQ(std::filesystem::file_size(path), full);
    std::filesystem::resize_file(path, full - 7);

    TraceReader r(path);
    TimedAccess rec;
    for (std::size_t i = 0; i + 1 < records.size(); ++i) {
        ASSERT_TRUE(r.next(rec)) << "record " << i;
        EXPECT_EQ(rec.addr, records[i].addr);
    }
    EXPECT_FALSE(r.next(rec));
    EXPECT_EQ(r.count(), records.size() - 1);
    std::remove(path.c_str());
}

TEST(TraceIo, ExtremeValuesRoundTrip)
{
    const std::string path = temp_path("lb_trace_extreme.bin");
    const std::uint64_t max64 = ~static_cast<std::uint64_t>(0);
    const std::vector<TimedAccess> expected = {
        {0, 0, 0, InstrKind::Op},
        {max64, max64, max64, InstrKind::Store},  // max cycle
        {max64, max64, max64, InstrKind::Store},  // exact duplicate
        {0, 0, kInvalidAddr, InstrKind::Load},    // sentinel address
        {1, max64 - 1, 1, InstrKind::Load},
    };
    {
        TraceWriter w(path);
        for (const TimedAccess &rec : expected)
            w.write(rec);
    }
    TraceReader r(path);
    TimedAccess rec;
    for (const TimedAccess &want : expected) {
        ASSERT_TRUE(r.next(rec));
        EXPECT_EQ(rec.cycle, want.cycle);
        EXPECT_EQ(rec.pc, want.pc);
        EXPECT_EQ(rec.addr, want.addr);
        EXPECT_EQ(rec.kind, want.kind);
    }
    EXPECT_FALSE(r.next(rec));
    std::remove(path.c_str());
}
