/**
 * @file
 * Wire protocol of the leakboundd experiment service.
 *
 * Transport: each message is one frame — a 4-byte little-endian length
 * prefix followed by exactly that many bytes of UTF-8 JSON.  Frames
 * flow in strict request/response pairs over a blocking stream socket
 * (Unix-domain or TCP); a client may pipeline multiple pairs over one
 * connection.  The length prefix is capped (kDefaultMaxFrameBytes) so
 * a lying or corrupted prefix cannot make the receiver allocate
 * gigabytes — an oversized prefix is CorruptData, not an allocation.
 *
 * Requests are JSON objects dispatched on their "type" member:
 *
 *   {"type": "ping"}                      -> {"status":"ok","type":"pong"}
 *   {"type": "health"}                    -> the HealthSnapshot object
 *   {"type": "stats"}                     -> the StatsSnapshot object
 *   {"type": "run", "benchmarks": [...],
 *    "instructions": N, ...}              -> the run response (below)
 *
 * Every response carries "status": "ok" or "error"; error responses
 * add "kind" (a util::error_kind_name bucket — the client rebuilds a
 * typed util::Status from it) and "message".  The run response mirrors
 * the bench JSON report schema (bench/bench_common.hpp): "suites",
 * "benchmarks" (each with a "result_fnv" digest of its
 * core::serialize_result bytes, plus the hex "payload" itself when the
 * request asked), "failures" and "cache_health", so existing report
 * consumers parse daemon output unchanged.
 */

#ifndef LEAKBOUND_SERVE_PROTOCOL_HPP
#define LEAKBOUND_SERVE_PROTOCOL_HPP

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/experiment.hpp"
#include "core/experiment_request.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/status.hpp"

namespace leakbound::serve {

/** Frame payload ceiling: prefixes above this are rejected. */
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

/** Bytes of the length prefix preceding every frame payload. */
inline constexpr std::size_t kFrameHeaderBytes = 4;

/**
 * Send @p payload as one length-prefixed frame.  Fails with
 * InvalidArgument (without writing anything) when the payload exceeds
 * @p max_frame — the sender must never emit a frame the peer is
 * contractually required to reject.
 */
util::Status send_frame(const util::net::Socket &socket,
                        const std::string &payload,
                        std::size_t max_frame = kDefaultMaxFrameBytes);

/**
 * Receive one frame payload.  ConnectionClosed when the peer hung up
 * cleanly between frames; CorruptData on a truncated header/payload or
 * a length prefix above @p max_frame.
 */
util::Expected<std::string>
recv_frame(const util::net::Socket &socket,
           std::size_t max_frame = kDefaultMaxFrameBytes);

/**
 * recv_frame with a wall-clock bound per phase (header, payload):
 * IoError once @p deadline_ms elapse without the bytes arriving.  The
 * supervisor's health probes and control plane use this — neither may
 * ever park forever behind a wedged or malicious peer.
 */
util::Expected<std::string>
recv_frame_deadline(const util::net::Socket &socket,
                    std::size_t max_frame, int deadline_ms);

/**
 * The bytes behind a "payload" member's lower-case hex (written by
 * util::JsonWriter::hex_value); upper case is accepted too.
 * CorruptData on odd length or non-hex.
 */
util::Expected<std::string> hex_decode(const std::string &hex);

/** Render the error response frame for @p status. */
std::string render_error(const util::Status &status);

/** Render the {"status":"ok","type":"pong"} ping response. */
std::string render_pong();

/** What the /stats request reports (server fills, protocol renders). */
struct StatsSnapshot
{
    std::uint64_t requests_served = 0;   ///< run requests answered
    std::uint64_t dedup_hits = 0;        ///< joined an in-flight twin
    std::uint64_t response_lru_hits = 0; ///< answered from the response LRU
    std::uint64_t response_lru_evictions = 0; ///< LRU entries evicted
    std::uint64_t response_lru_entries = 0;   ///< instantaneous LRU size
    std::uint64_t response_lru_bytes = 0;     ///< instantaneous LRU bytes
    std::uint64_t cache_hits = 0;        ///< benchmarks loaded, not simulated
    std::uint64_t analytic_runs = 0;     ///< benchmarks the fast path skipped
    std::uint64_t sim_runs = 0;          ///< benchmarks simulated end to end
    std::uint64_t rejected_overloaded = 0;
    std::uint64_t rejected_deadline = 0; ///< shed: deadline unmeetable
    std::uint64_t rejected_shutting_down = 0;
    std::uint64_t protocol_errors = 0;   ///< malformed frames/requests
    std::uint64_t sessions_accepted = 0;
    std::uint64_t open_connections = 0;  ///< instantaneous live connections
    std::uint64_t queue_depth = 0;       ///< requests admitted, not started
    std::uint64_t running = 0;           ///< suites executing right now
    std::uint64_t locks_broken = 0;      ///< stale cache locks broken (crash hygiene)
    double latency_p50_ms = 0.0;         ///< over served run requests
    double latency_p99_ms = 0.0;
    double uptime_seconds = 0.0;
};

/** Render the stats response frame. */
std::string render_stats(const StatsSnapshot &stats);

/**
 * Write the StatsSnapshot members into an already-open JSON object.
 * The supervisor uses this to emit its aggregated /stats with the
 * exact field names and order of a single shard's, plus its own
 * "fleet" block appended.
 */
void write_stats_fields(util::JsonWriter &w, const StatsSnapshot &stats);

/**
 * What the /health request reports: process identity plus liveness.
 * Cheap by design — the supervisor probes it on a deadline, so the
 * render must never touch the scheduler's queues or block.
 */
struct HealthSnapshot
{
    int shard_index = -1;     ///< fleet position; -1 when unsharded
    std::int64_t pid = 0;     ///< the answering process
    bool draining = false;    ///< drain requested; no new work admitted
    double uptime_seconds = 0.0;
};

/** Render the health response frame. */
std::string render_health(const HealthSnapshot &health);

/**
 * Render the run response for @p outcome.  @p fingerprint is the dedup
 * key (core::fingerprint_request); every client in a dedup group
 * receives these exact bytes.  Per-benchmark entries carry
 * "result_fnv", the FNV-1a digest of core::serialize_result — the same
 * byte-identity oracle the cache tests use — and, when
 * @p request.want_payload, the full serialized result as hex.  Both
 * come from ExperimentResult::serialized (its checksum and bytes) when
 * a slot carries it, and from serialize_result and one hash only when
 * it does not.
 */
std::string render_run_response(const core::SuiteOutcome &outcome,
                                const core::ExperimentRequest &request,
                                std::uint64_t fingerprint);

} // namespace leakbound::serve

#endif // LEAKBOUND_SERVE_PROTOCOL_HPP
