/**
 * @file
 * Throughput/latency bench of the leakboundd service, in-process.
 *
 * Starts a daemon on an ephemeral loopback port, performs one cold
 * run (which populates the artifact cache when --cache-dir is set),
 * then fires --requests identical run requests from --concurrency
 * client threads — the warm phase, where responses come from the
 * dedup scheduler and the artifact cache rather than fresh
 * simulations.  Emits BENCH_serve.json with the cold/warm wall times,
 * warm throughput, client-observed latency percentiles and the
 * daemon's own /stats counters, so service-layer perf trajectories can
 * be tracked across commits like the simulator's.
 *
 * Flags come from the shared core/suite_flags.hpp family
 * (--instructions/--jobs/--cache-dir/--json) plus the load shape
 * (--requests/--concurrency/--workers), so the bench, the daemon and
 * the client all spell their knobs the same way.
 *
 * With --shards N the daemon side becomes a supervised fleet: a
 * supervisor process (forked before this process grows threads) runs
 * N shard children on a shared artifact cache, and the warm load is
 * fingerprint-routed across them with failover — the sharded
 * configuration must hold the single-daemon throughput line.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/artifact_cache.hpp"
#include "core/suite_flags.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "util/binary_io.hpp"
#include "util/cli.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;

namespace {

double
seconds_since(std::chrono::steady_clock::time_point begun)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - begun)
        .count();
}

/** Lift the daemon's /stats JSON back into a StatsSnapshot (fleet
 *  mode, where the counters arrive merged over the wire). */
serve::StatsSnapshot
snapshot_from_json(const util::JsonValue &document)
{
    serve::StatsSnapshot stats;
    auto u64 = [&](const char *key) -> std::uint64_t {
        const util::JsonValue *field = document.find(key);
        return field != nullptr && field->is_u64() ? field->u64_value()
                                                   : 0;
    };
    stats.requests_served = u64("requests_served");
    stats.dedup_hits = u64("dedup_hits");
    stats.response_lru_hits = u64("response_lru_hits");
    stats.response_lru_evictions = u64("response_lru_evictions");
    stats.cache_hits = u64("cache_hits");
    stats.rejected_overloaded = u64("rejected_overloaded");
    stats.rejected_deadline = u64("rejected_deadline");
    stats.protocol_errors = u64("protocol_errors");
    stats.sessions_accepted = u64("sessions_accepted");
    stats.open_connections = u64("open_connections");
    return stats;
}

std::string
render_report(const util::Cli &cli, const serve::ServerConfig &config,
              unsigned shards, double cold_seconds,
              bool lru_probe_identical, const serve::LoadReport &load,
              const serve::StatsSnapshot &stats)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value("bench_serve");
    w.key("description")
        .value("leakboundd warm throughput and latency under "
               "held-open connections (epoll event loop + response "
               "LRU)");
    w.key("shards").value(static_cast<std::uint64_t>(shards));
    w.key("flags").begin_object();
    for (const auto &[name, value] : cli.snapshot())
        w.key(name).value(value);
    w.end_object();
    w.key("workers")
        .value(static_cast<std::uint64_t>(config.scheduler.workers));
    w.key("suite_jobs")
        .value(static_cast<std::uint64_t>(config.scheduler.suite_jobs));
    w.key("cache_dir").value(config.scheduler.cache_dir);
    w.key("cold_seconds").value(cold_seconds);
    // The response-LRU contract, measured: a warm hit's bytes against
    // the cold render's bytes.
    w.key("lru_hit_byte_identical").value(lru_probe_identical);
    w.key("load").begin_object();
    w.key("sent").value(load.sent);
    w.key("ok").value(load.ok);
    w.key("overloaded").value(load.overloaded);
    w.key("errors").value(load.other_errors + load.shutting_down);
    w.key("idle_connections_held").value(load.idle_connections_held);
    w.key("wall_seconds").value(load.wall_seconds);
    w.key("throughput_rps")
        .value(load.wall_seconds > 0.0
                   ? static_cast<double>(load.ok) / load.wall_seconds
                   : 0.0);
    w.key("latency_p50_ms").value(load.latency_ms.p50());
    w.key("latency_p99_ms").value(load.latency_ms.p99());
    w.key("latency_max_ms").value(load.latency_ms.max());
    w.key("distinct_fingerprints").value(load.distinct_fingerprints);
    w.key("distinct_responses").value(load.distinct_responses);
    w.key("failovers").value(load.failovers);
    w.end_object();
    w.key("stats").begin_object();
    w.key("requests_served").value(stats.requests_served);
    w.key("dedup_hits").value(stats.dedup_hits);
    w.key("response_lru_hits").value(stats.response_lru_hits);
    w.key("response_lru_evictions").value(stats.response_lru_evictions);
    w.key("cache_hits").value(stats.cache_hits);
    w.key("rejected_overloaded").value(stats.rejected_overloaded);
    w.key("rejected_deadline").value(stats.rejected_deadline);
    w.key("protocol_errors").value(stats.protocol_errors);
    w.key("sessions_accepted").value(stats.sessions_accepted);
    w.key("open_connections").value(stats.open_connections);
    w.end_object();
    w.end_object();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    util::install_signal_handlers();
    util::fault::configure_from_env();

    util::Cli cli("bench_serve",
                  "leakboundd warm-cache throughput and latency");
    core::SuiteFlagSpec spec;
    spec.csv_dir = false;
    spec.suite_passes = false;
    spec.engine = false; // requests pin the default engine
    spec.default_instructions = 200'000;
    core::register_suite_flags(cli, spec);
    cli.add_flag("benchmarks",
                 "comma-separated suite benchmarks per request", "gzip");
    cli.add_flag("requests", "warm-phase run requests", "64");
    cli.add_flag("concurrency", "client threads for the warm phase",
                 "8");
    cli.add_flag("workers", "scheduler suite workers in the daemon",
                 "2");
    cli.add_flag("connections",
                 "idle connections held open through the warm phase",
                 "1000");
    cli.add_flag("pipeline",
                 "requests each warm client keeps in flight on its "
                 "connection",
                 "8");
    cli.add_flag("shards",
                 "benchmark a supervised fleet of N shard processes "
                 "instead of one in-process daemon (0 = single daemon)",
                 "0");
    cli.parse(argc, argv);

    serve::ServerConfig config;
    config.scheduler.workers =
        static_cast<unsigned>(cli.get_u64("workers"));
    config.scheduler.suite_jobs = core::suite_jobs(cli);
    config.scheduler.cache_dir =
        core::resolve_cache_dir(cli.get("cache-dir"));
    config.scheduler.max_queue = cli.get_u64("requests");

    const unsigned shards =
        static_cast<unsigned>(cli.get_u64("shards"));
    serve::Endpoint endpoint;
    std::vector<serve::Endpoint> fleet;
    std::unique_ptr<serve::Server> server;
    std::thread serving;
    pid_t fleet_pid = -1;
    if (shards > 0) {
        // Fleet mode: the supervisor must fork its shards, so it runs
        // in a child forked NOW, while this process is still
        // single-threaded; the bench process stays a pure client.
        config.unix_path = "/tmp/bench_serve_fleet_" +
                           std::to_string(::getpid()) + ".sock";
        serve::SupervisorConfig fc;
        fc.shards = shards;
        fc.shard = config;
        std::fflush(stdout);
        std::fflush(stderr);
        fleet_pid = ::fork();
        if (fleet_pid == 0) {
            serve::Supervisor supervisor(std::move(fc));
            if (util::Status started = supervisor.start();
                !started.ok()) {
                util::warn("cannot start fleet: ",
                           started.to_string());
                std::_Exit(1);
            }
            std::_Exit(supervisor.run().ok() ? 0 : 1);
        }
        if (fleet_pid < 0)
            util::fatal("cannot fork the fleet supervisor");
        endpoint.unix_path = config.unix_path;
        fleet = serve::fleet_endpoints(endpoint, shards);
        // Wait until the control plane answers ping.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(15);
        bool up = false;
        while (std::chrono::steady_clock::now() < deadline) {
            if (serve::call_endpoint(endpoint,
                                     serve::build_ping_request(),
                                     serve::kDefaultMaxFrameBytes,
                                     nullptr)) {
                up = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (!up)
            util::fatal("fleet never became ready");
    } else {
        config.listen_tcp = true; // ephemeral loopback port
        server = std::make_unique<serve::Server>(config);
        if (util::Status started = server->start(); !started.ok())
            util::fatal("cannot start the daemon: ",
                        started.to_string());
        serving = std::thread([&server] {
            if (util::Status served = server->serve(); !served.ok())
                util::warn("serve failed: ", served.to_string());
        });
        endpoint.tcp_port = server->tcp_port();
    }

    serve::RunRequest request;
    request.benchmarks = util::split(cli.get("benchmarks"), ',');
    for (const std::string &name : request.benchmarks)
        if (!workload::is_benchmark(name))
            util::fatal("unknown benchmark \"", name, "\"");
    request.instructions = cli.get_u64("instructions");

    // One run request, fingerprint-routed in fleet mode.
    auto call_once = [&](std::string *raw) {
        if (shards > 0)
            return serve::call_fleet(fleet, request,
                                     serve::FailoverPolicy{},
                                     serve::kDefaultMaxFrameBytes, raw,
                                     nullptr);
        return serve::call_endpoint(endpoint,
                                    serve::build_run_request(request),
                                    serve::kDefaultMaxFrameBytes, raw);
    };
    auto teardown = [&] {
        if (fleet_pid > 0) {
            ::kill(fleet_pid, SIGTERM);
            (void)::waitpid(fleet_pid, nullptr, 0);
            fleet_pid = -1;
        }
        if (server) {
            server->request_drain();
            serving.join();
        }
    };

    // Cold pass: one request simulates (and seeds both the artifact
    // cache and the response LRU).
    const auto cold_begun = std::chrono::steady_clock::now();
    std::string cold_raw;
    auto cold = call_once(&cold_raw);
    const double cold_seconds = seconds_since(cold_begun);
    if (!cold) {
        teardown();
        util::fatal("cold request failed: ",
                    cold.status().to_string());
    }

    // LRU probe: the very next identical request must be answered
    // from the response LRU with the cold render's exact bytes.
    std::string probe_raw;
    auto probe = call_once(&probe_raw);
    const bool lru_probe_identical = probe && probe_raw == cold_raw;

    // Warm phase: every response should come from the response LRU (or
    // at worst the in-flight dedup group), while --connections idle
    // sockets sit on the daemon costing nothing.
    serve::LoadOptions options;
    options.total = cli.get_u64("requests");
    options.concurrency =
        static_cast<unsigned>(cli.get_u64("concurrency"));
    options.idle_connections =
        static_cast<unsigned>(cli.get_u64("connections"));
    options.persistent = true;
    options.pipeline = static_cast<unsigned>(cli.get_u64("pipeline"));
    if (shards > 0)
        options.fleet = fleet;
    const serve::LoadReport load =
        serve::run_load(endpoint, request, options);

    serve::StatsSnapshot stats;
    if (shards > 0) {
        // The supervisor's control endpoint answers with the shard
        // counters already merged (plus the fleet block, which the
        // flags snapshot records implicitly via --shards).
        auto merged = serve::call_endpoint(
            endpoint, serve::build_stats_request(),
            serve::kDefaultMaxFrameBytes, nullptr);
        if (merged)
            stats = snapshot_from_json(merged.value());
        else
            util::warn("fleet stats unavailable: ",
                       merged.status().to_string());
    } else {
        stats = server->stats();
    }
    teardown();

    std::printf(
        "cold: %.3fs   warm: %llu/%llu ok in %.3fs (%.0f req/s) with "
        "%llu idle conns\n"
        "latency: p50 %.2f ms, p99 %.2f ms   dedup %llu, lru %llu "
        "(byte-identical: %s), cache %llu\n",
        cold_seconds, static_cast<unsigned long long>(load.ok),
        static_cast<unsigned long long>(load.sent), load.wall_seconds,
        load.wall_seconds > 0.0
            ? static_cast<double>(load.ok) / load.wall_seconds
            : 0.0,
        static_cast<unsigned long long>(load.idle_connections_held),
        load.latency_ms.p50(), load.latency_ms.p99(),
        static_cast<unsigned long long>(stats.dedup_hits),
        static_cast<unsigned long long>(stats.response_lru_hits),
        lru_probe_identical ? "yes" : "NO",
        static_cast<unsigned long long>(stats.cache_hits));

    const std::string contents =
        render_report(cli, config, shards, cold_seconds,
                      lru_probe_identical, load, stats) +
        "\n";
    const std::string path = cli.get("json");
    if (!path.empty()) {
        if (util::Status wrote = util::write_file_atomic(path, contents);
            !wrote.ok())
            util::warn("cannot write report: ", wrote.to_string());
    }

    const bool clean = load.ok == load.sent &&
                       load.distinct_responses <= 1 &&
                       lru_probe_identical &&
                       stats.response_lru_hits >= 1;
    return clean ? 0 : 3;
}
