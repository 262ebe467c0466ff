/**
 * @file
 * Implementation of the leakboundd wire protocol: frame codec, hex
 * payload decoding, and the response renderers.
 */

#include "serve/protocol.hpp"

#include <cstring>

#include "core/artifact_cache.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace leakbound::serve {

util::Status
send_frame(const util::net::Socket &socket, const std::string &payload,
           std::size_t max_frame)
{
    if (payload.size() > max_frame) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "frame payload of " +
                                std::to_string(payload.size()) +
                                " bytes exceeds the " +
                                std::to_string(max_frame) + " byte cap");
    }
    // One buffer, one send path: splitting header and payload into
    // two writes invites a Nagle/delayed-ACK stall between them.
    const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    frame.push_back(static_cast<char>(size & 0xff));
    frame.push_back(static_cast<char>((size >> 8) & 0xff));
    frame.push_back(static_cast<char>((size >> 16) & 0xff));
    frame.push_back(static_cast<char>((size >> 24) & 0xff));
    frame.append(payload);
    return util::net::send_all(socket, frame.data(), frame.size());
}

util::Expected<std::string>
recv_frame(const util::net::Socket &socket, std::size_t max_frame)
{
    std::string header;
    if (util::Status got =
            util::net::recv_exact(socket, kFrameHeaderBytes, header);
        !got.ok())
        return got;
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(header.data());
    const std::uint32_t size =
        static_cast<std::uint32_t>(bytes[0]) |
        (static_cast<std::uint32_t>(bytes[1]) << 8) |
        (static_cast<std::uint32_t>(bytes[2]) << 16) |
        (static_cast<std::uint32_t>(bytes[3]) << 24);
    if (size > max_frame) {
        return util::Status(util::ErrorKind::CorruptData,
                            "frame length prefix of " +
                                std::to_string(size) +
                                " bytes exceeds the " +
                                std::to_string(max_frame) + " byte cap");
    }
    std::string payload;
    if (size == 0)
        return payload;
    if (util::Status got = util::net::recv_exact(socket, size, payload);
        !got.ok()) {
        // recv_exact reports clean EOF before the first byte as
        // ConnectionClosed, but after a header a vanishing peer is a
        // truncated frame, not a clean close.
        if (got.kind() == util::ErrorKind::ConnectionClosed) {
            return util::Status(util::ErrorKind::CorruptData,
                                "peer closed mid-frame: announced " +
                                    std::to_string(size) +
                                    " bytes, sent none");
        }
        return got;
    }
    return payload;
}

util::Expected<std::string>
recv_frame_deadline(const util::net::Socket &socket,
                    std::size_t max_frame, int deadline_ms)
{
    std::string header;
    if (util::Status got = util::net::recv_exact_deadline(
            socket, kFrameHeaderBytes, header, deadline_ms);
        !got.ok())
        return got;
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(header.data());
    const std::uint32_t size =
        static_cast<std::uint32_t>(bytes[0]) |
        (static_cast<std::uint32_t>(bytes[1]) << 8) |
        (static_cast<std::uint32_t>(bytes[2]) << 16) |
        (static_cast<std::uint32_t>(bytes[3]) << 24);
    if (size > max_frame) {
        return util::Status(util::ErrorKind::CorruptData,
                            "frame length prefix of " +
                                std::to_string(size) +
                                " bytes exceeds the " +
                                std::to_string(max_frame) + " byte cap");
    }
    std::string payload;
    if (size == 0)
        return payload;
    if (util::Status got = util::net::recv_exact_deadline(
            socket, size, payload, deadline_ms);
        !got.ok()) {
        if (got.kind() == util::ErrorKind::ConnectionClosed) {
            return util::Status(util::ErrorKind::CorruptData,
                                "peer closed mid-frame: announced " +
                                    std::to_string(size) +
                                    " bytes, sent none");
        }
        return got;
    }
    return payload;
}

namespace {

int
hex_nibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

util::Expected<std::string>
hex_decode(const std::string &hex)
{
    if (hex.size() % 2 != 0) {
        return util::Status(util::ErrorKind::CorruptData,
                            "odd-length hex string (" +
                                std::to_string(hex.size()) + " chars)");
    }
    std::string out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        const int hi = hex_nibble(hex[i]);
        const int lo = hex_nibble(hex[i + 1]);
        if (hi < 0 || lo < 0) {
            return util::Status(util::ErrorKind::CorruptData,
                                "non-hex character at offset " +
                                    std::to_string(i));
        }
        out.push_back(static_cast<char>((hi << 4) | lo));
    }
    return out;
}

std::string
render_error(const util::Status &status)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("error");
    w.key("kind").value(util::error_kind_name(status.kind()));
    w.key("message").value(status.message());
    w.end_object();
    return w.take();
}

std::string
render_pong()
{
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("pong");
    w.end_object();
    return w.take();
}

void
write_stats_fields(util::JsonWriter &w, const StatsSnapshot &stats)
{
    w.key("requests_served").value(stats.requests_served);
    w.key("dedup_hits").value(stats.dedup_hits);
    w.key("response_lru_hits").value(stats.response_lru_hits);
    w.key("response_lru_evictions").value(stats.response_lru_evictions);
    w.key("response_lru_entries").value(stats.response_lru_entries);
    w.key("response_lru_bytes").value(stats.response_lru_bytes);
    w.key("cache_hits").value(stats.cache_hits);
    w.key("analytic_runs").value(stats.analytic_runs);
    w.key("sim_runs").value(stats.sim_runs);
    w.key("rejected_overloaded").value(stats.rejected_overloaded);
    w.key("rejected_deadline").value(stats.rejected_deadline);
    w.key("rejected_shutting_down").value(stats.rejected_shutting_down);
    w.key("protocol_errors").value(stats.protocol_errors);
    w.key("sessions_accepted").value(stats.sessions_accepted);
    w.key("open_connections").value(stats.open_connections);
    w.key("queue_depth").value(stats.queue_depth);
    w.key("running").value(stats.running);
    w.key("locks_broken").value(stats.locks_broken);
    w.key("latency_p50_ms").value(stats.latency_p50_ms);
    w.key("latency_p99_ms").value(stats.latency_p99_ms);
    w.key("uptime_seconds").value(stats.uptime_seconds);
}

std::string
render_stats(const StatsSnapshot &stats)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("stats");
    write_stats_fields(w, stats);
    w.end_object();
    return w.take();
}

std::string
render_health(const HealthSnapshot &health)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("health");
    w.key("role").value("shard");
    w.key("shard").value(static_cast<std::int64_t>(health.shard_index));
    w.key("pid").value(health.pid);
    w.key("draining").value(health.draining);
    w.key("uptime_seconds").value(health.uptime_seconds);
    w.end_object();
    return w.take();
}

std::string
render_run_response(const core::SuiteOutcome &outcome,
                    const core::ExperimentRequest &request,
                    std::uint64_t fingerprint)
{
    std::uint64_t simulated = 0;
    std::uint64_t loaded = 0;
    for (const auto &slot : outcome.slots)
        if (slot)
            ++(slot->from_cache ? loaded : simulated);

    util::JsonWriter w;
    if (request.want_payload) {
        // Two hex digits per payload byte, plus the fixed members.
        std::size_t payload_bytes = 0;
        for (const auto &slot : outcome.slots)
            if (slot && slot->serialized)
                payload_bytes += slot->serialized->bytes.size();
        w.reserve(2 * payload_bytes + 4096);
    }
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("run");
    w.key("request_fingerprint").value(util::hex64(fingerprint));
    w.key("interrupted").value(outcome.interrupted);
    w.key("suites").begin_array();
    w.begin_object();
    w.key("simulated").value(simulated);
    w.key("loaded").value(loaded);
    w.key("failed").value(
        static_cast<std::uint64_t>(outcome.failures.size()));
    w.end_object();
    w.end_array();
    w.key("benchmarks").begin_array();
    for (const auto &slot : outcome.slots) {
        if (!slot)
            continue;
        const core::ExperimentResult &run = *slot;
        // A result the artifact cache loaded or stored carries its
        // exact payload and checksum; only one it never held is
        // serialized and hashed here.
        core::SerializedResult fresh;
        if (!run.serialized) {
            fresh.bytes = core::serialize_result(run);
            fresh.fnv = util::fnv1a(fresh.bytes.data(), fresh.bytes.size());
        }
        const core::SerializedResult &payload =
            run.serialized ? *run.serialized : fresh;
#ifndef NDEBUG
        // Debug builds check the carried bytes and checksum against the
        // result they travel with, so a result changed after its load
        // or store cannot be rendered under stale bytes.
        LEAKBOUND_ASSERT(!run.serialized ||
                             payload.bytes == core::serialize_result(run),
                         "carried payload of '", run.workload,
                         "' differs from serialize_result");
        LEAKBOUND_ASSERT(payload.fnv == util::fnv1a(payload.bytes.data(),
                                                    payload.bytes.size()),
                         "carried checksum of '", run.workload,
                         "' differs from its payload's");
#endif
        w.begin_object();
        w.key("benchmark").value(run.workload);
        w.key("instructions").value(run.core.instructions);
        w.key("cycles").value(run.core.cycles);
        w.key("ipc").value(run.core.ipc());
        w.key("from_cache").value(run.from_cache);
        w.key("engine").value(run.analytic ? "analytic" : "sim");
        w.key("result_fnv").value(util::hex64(payload.fnv));
        if (request.want_payload)
            w.key("payload").hex_value(payload.bytes);
        w.end_object();
    }
    w.end_array();
    w.key("failures").begin_array();
    for (const core::SuiteJobFailure &failure : outcome.failures) {
        w.begin_object();
        w.key("benchmark").value(failure.workload);
        w.key("kind").value(util::error_kind_name(failure.kind));
        w.key("message").value(failure.message);
        w.key("retries").value(
            static_cast<std::uint64_t>(failure.retries));
        w.end_object();
    }
    w.end_array();
    w.key("cache_health").begin_object();
    w.key("store_failures").value(outcome.cache.store_failures);
    w.key("corrupt_entries").value(outcome.cache.corrupt_entries);
    w.key("lock_breaks").value(outcome.cache.lock_breaks);
    w.key("lock_timeouts").value(outcome.cache.lock_timeouts);
    w.key("lock_retries").value(outcome.cache.lock_retries);
    w.key("degraded_jobs").value(outcome.cache.degraded_jobs);
    w.key("degraded").value(outcome.cache.degraded);
    w.end_object();
    w.end_object();
    return w.take();
}

} // namespace leakbound::serve
