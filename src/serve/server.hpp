/**
 * @file
 * The leakboundd server: an edge-triggered epoll event loop over
 * non-blocking sockets, connection state machines, stats, drain.
 *
 * Threading/ownership model (DESIGN.md §6): the thread that calls
 * serve() runs the event loop and is the ONLY thread that ever touches
 * a connection — sockets, buffers, reply queues all live and die on
 * the loop.  Compute lives in the Scheduler's fixed worker pool; the
 * loop hands a decoded run request to Scheduler::submit_async and
 * moves on, so 10k idle-or-slow clients cost zero threads and zero
 * per-connection wakeups.  An answer the scheduler has at once (a
 * response-LRU hit or a rejection) is written in place on the loop, in
 * the same iteration.  Workers deliver rendered response bytes
 * into a mutex-guarded completion queue and kick an eventfd; the loop
 * drains the queue, matches completions to their connection by
 * (connection id, reply sequence) — both survive the connection's
 * death, so a completion for a vanished client is dropped, never a
 * use-after-free — and resumes partial writes under EPOLLOUT.  On
 * SIGINT/SIGTERM or request_drain() the loop stops accepting, drains
 * the scheduler (in-flight experiments finish, queued ones fail with
 * ShuttingDown), flushes every answered connection within a bounded
 * grace period, and closes everything before serve() returns.
 */

#ifndef LEAKBOUND_SERVE_SERVER_HPP
#define LEAKBOUND_SERVE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "util/net.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

namespace leakbound::serve {

/** Shape of one daemon instance. */
struct ServerConfig
{
    /** Unix-domain socket path ("" = no unix listener). */
    std::string unix_path;
    /** TCP listen address; used when listen_tcp is true. */
    std::string tcp_host = "127.0.0.1";
    std::uint16_t tcp_port = 0; ///< 0 = kernel-assigned ephemeral port
    bool listen_tcp = false;
    /** Ceiling a request's "instructions" must stay under. */
    std::uint64_t max_instructions = core::kDefaultMaxRequestInstructions;
    /** Frame payload cap for both directions. */
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /** Concurrent connections; accepts beyond this are turned away. */
    unsigned max_sessions = 10'000;
    /** Event-loop wait ceiling (drain/interrupt latency upper bound). */
    int poll_interval_ms = 100;
    /** Grace period for flushing answered connections on drain. */
    int drain_flush_ms = 2'000;
    /**
     * Fleet position reported by /health (-1 = standalone daemon).
     * The supervisor stamps this when forking shards.
     */
    int shard_index = -1;
    /**
     * Write end of the supervisor's heartbeat pipe (-1 = none).  The
     * event loop writes one byte per interval from its own thread, so
     * a heartbeat proves the loop itself is turning, not merely that
     * the process exists.  Not owned: the supervisor child closes it
     * via process exit.
     */
    int heartbeat_fd = -1;
    int heartbeat_interval_ms = 250;
    SchedulerConfig scheduler;
};

/** One daemon: construct, start(), serve(); thread-safe stats/drain. */
class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the configured listeners (call once, before serve()). */
    util::Status start();

    /** The bound TCP port (after start(); 0 when no TCP listener). */
    std::uint16_t tcp_port() const { return tcp_port_; }

    /**
     * Run the event loop on the calling thread until an interrupt or
     * request_drain(), then drain and flush everything.  Returns ok on
     * a clean drain.
     */
    util::Status serve();

    /** Ask serve() to drain and return (thread-safe, idempotent). */
    void request_drain()
    {
        drain_requested_.store(true);
        wakeup_.signal();
    }

    /** Assemble the /stats view (also what sessions reply with). */
    StatsSnapshot stats() const;

    /** Assemble the /health view (cheap; never touches the scheduler). */
    HealthSnapshot health() const;

  private:
    /** One queued response frame, in request order. */
    struct Reply
    {
        std::uint64_t seq = 0;
        bool ready = false;
        /** Whether this reply's latency is recorded (run requests). */
        bool timed = false;
        std::chrono::steady_clock::time_point begun;
        std::shared_ptr<const std::string> frame;
    };

    /**
     * One client connection's entire state machine, owned by the
     * event loop: accumulate bytes → peel frames → dispatch → queue
     * replies in request order → write with partial-write resumption.
     */
    struct Connection
    {
        util::net::Socket socket;
        std::uint64_t id = 0;
        /** Unparsed inbound bytes ([inoff, size) is live). */
        std::string inbuf;
        std::size_t inoff = 0;
        /** Replies in request order; front is next on the wire. */
        std::deque<Reply> replies;
        std::uint64_t next_seq = 0;
        /** Outbound bytes mid-flight ([outoff, size) unsent). */
        std::string outbuf;
        std::size_t outoff = 0;
        bool want_write = false;      ///< EPOLLOUT armed
        bool peer_closed = false;     ///< read side saw EOF
        bool close_after_flush = false; ///< hang up once drained
        bool shed = false;            ///< overload-rejected; not live
    };

    /** A worker's finished response en route to the loop. */
    struct PendingCompletion
    {
        std::uint64_t connection_id = 0;
        std::uint64_t seq = 0;
        std::shared_ptr<const std::string> response;
    };

    void accept_pending(const util::net::Socket &listener);
    void handle_readable(Connection *connection);
    /** Peel complete frames off inbuf and dispatch each. */
    void parse_frames(Connection *connection);
    void dispatch(Connection *connection, const std::string &payload);
    /** Queue an already-rendered reply (ping/stats/errors). */
    void enqueue_ready(Connection *connection, std::string frame,
                       bool timed = false,
                       std::chrono::steady_clock::time_point begun = {});
    /** Move ready replies into outbuf and push bytes to the socket. */
    void flush_writes(Connection *connection);
    void update_write_interest(Connection *connection);
    void destroy(Connection *connection);
    void drain_completions();
    /** Thread-safe: workers (and drain) post a finished response. */
    void queue_completion(std::uint64_t connection_id, std::uint64_t seq,
                          std::shared_ptr<const std::string> response);
    void note_protocol_error();
    /** Flush answered connections after drain, bounded by grace. */
    void drain_flush();
    /** Pulse the supervisor's heartbeat pipe when due (no-op unpiped). */
    void emit_heartbeat();

    ServerConfig config_;
    std::unique_ptr<Scheduler> scheduler_;
    util::net::Socket unix_listener_;
    util::net::Socket tcp_listener_;
    std::uint16_t tcp_port_ = 0;
    bool started_ = false;
    std::atomic<bool> drain_requested_{false};
    std::chrono::steady_clock::time_point started_at_;
    std::chrono::steady_clock::time_point next_heartbeat_at_;

    // ---- event loop state: touched only by the serve() thread ----
    util::net::Epoll epoll_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        connections_;
    std::uint64_t next_connection_id_ = 100; ///< ids < 100 are reserved tags
    /** Live (non-shed) connections; atomic only so stats() may read. */
    std::atomic<std::uint64_t> live_connections_{0};
    std::vector<util::net::EpollEvent> events_;

    // ---- worker → loop handoff ----
    util::net::WakeupFd wakeup_;
    std::mutex completions_mutex_;
    std::deque<PendingCompletion> completions_;

    mutable std::mutex mutex_; ///< guards the stats counters below
    std::uint64_t sessions_accepted_ = 0;
    std::uint64_t sessions_rejected_ = 0;
    std::uint64_t protocol_errors_ = 0;
    util::LatencyRecorder latency_ms_;
};

} // namespace leakbound::serve

#endif // LEAKBOUND_SERVE_SERVER_HPP
