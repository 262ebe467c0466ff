/**
 * @file
 * Fleet supervision tests: fork+exec the real `leakboundd` binary in
 * --shards mode and exercise the supervisor from outside — SIGKILL a
 * shard and watch it come back, provoke the crash-loop breaker, pull
 * load through a shard loss, and (in chaos builds) let the kill_shard
 * seam do the killing.
 *
 * These tests manage real child processes, so they live outside
 * test_serve.cpp (which stays fork-free for TSan).  The daemon binary
 * comes from the LEAKBOUNDD environment variable, wired up by CTest;
 * tests skip when it is unset so the bare binary still runs clean.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/binary_io.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"

using namespace leakbound;

namespace {

using Clock = std::chrono::steady_clock;

const char *
daemon_binary()
{
    return std::getenv("LEAKBOUNDD");
}

serve::RunRequest
small_request()
{
    serve::RunRequest request;
    request.benchmarks = {"gzip"};
    request.instructions = 20'000;
    return request;
}

/**
 * One supervised leakboundd process: spawned with --shards, reached
 * through its control endpoint, killed and reaped on teardown.
 */
class FleetDaemon
{
  public:
    FleetDaemon(const std::string &name, unsigned shards,
                std::vector<std::string> extra_args,
                std::vector<std::pair<std::string, std::string>>
                    extra_env = {})
        : shards_(shards)
    {
        socket_path_ = "/tmp/lbf_" + name + ".sock";
        cache_dir_ = "/tmp/lbf_" + name + "_cache";
        log_path_ = "/tmp/lbf_" + name + ".log";
        ::mkdir(cache_dir_.c_str(), 0755);
        // Stale sockets from a previous crashed run would fail bind.
        std::remove(socket_path_.c_str());
        for (unsigned i = 0; i < shards; ++i)
            std::remove(
                (socket_path_ + "." + std::to_string(i)).c_str());

        std::vector<std::string> args = {
            daemon_binary(),
            "--socket", socket_path_,
            "--cache-dir", cache_dir_,
            "--shards", std::to_string(shards),
            "--workers", "1",
            "--queue-limit", "64",
        };
        for (std::string &arg : extra_args)
            args.push_back(std::move(arg));

        std::fflush(stdout);
        std::fflush(stderr);
        pid_ = ::fork();
        if (pid_ == 0) {
            const int log = ::open(log_path_.c_str(),
                                   O_CREAT | O_TRUNC | O_WRONLY, 0644);
            if (log >= 0) {
                ::dup2(log, STDOUT_FILENO);
                ::dup2(log, STDERR_FILENO);
                ::close(log);
            }
            for (const auto &[key, value] : extra_env)
                ::setenv(key.c_str(), value.c_str(), 1);
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (std::string &arg : args)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }

    ~FleetDaemon()
    {
        if (pid_ > 0 && !reaped_) {
            ::kill(pid_, SIGKILL);
            (void)::waitpid(pid_, nullptr, 0);
        }
        // A SIGKILLed supervisor leaves its children orphaned; sweep
        // any shard still bound to our sockets so the next test's
        // bind does not collide.  SIGTERMed shards exit on their own.
        std::remove(socket_path_.c_str());
        for (unsigned i = 0; i < shards_; ++i)
            std::remove(
                (socket_path_ + "." + std::to_string(i)).c_str());
    }

    serve::Endpoint control() const
    {
        serve::Endpoint endpoint;
        endpoint.unix_path = socket_path_;
        return endpoint;
    }

    std::vector<serve::Endpoint> fleet() const
    {
        return serve::fleet_endpoints(control(), shards_);
    }

    const std::string &cache_dir() const { return cache_dir_; }

    /**
     * Wait until the control endpoint and then every shard's own
     * endpoint answer ping (or give up).  Each shard binds its socket
     * after the fork, so a ready supervisor alone does not mean a test
     * can call a shard directly.
     */
    bool wait_ready(int deadline_ms = 15'000)
    {
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(deadline_ms);
        auto answers = [&](const serve::Endpoint &endpoint) {
            while (Clock::now() < deadline) {
                if (exited(0))
                    return false; // died during startup
                auto response = serve::call_endpoint(
                    endpoint, serve::build_ping_request(),
                    serve::kDefaultMaxFrameBytes, nullptr);
                if (response)
                    return true;
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
            return false;
        };
        if (!answers(control()))
            return false;
        for (const serve::Endpoint &shard : fleet())
            if (!answers(shard))
                return false;
        return true;
    }

    /** The supervisor's /health document, or a non-ok status. */
    util::Expected<util::JsonValue> health()
    {
        return serve::call_endpoint(control(),
                                    serve::build_health_request(),
                                    serve::kDefaultMaxFrameBytes,
                                    nullptr);
    }

    /** Shard @p index's state and pid, or {"", -1} if unreadable. */
    std::pair<std::string, pid_t> shard_status(unsigned index)
    {
        auto document = health();
        if (!document)
            return {"", -1};
        const util::JsonValue *details =
            document.value().find("shard_details");
        if (details == nullptr || !details->is_array() ||
            details->array().size() <= index)
            return {"", -1};
        const util::JsonValue &shard = details->array()[index];
        const util::JsonValue *state = shard.find("state");
        const util::JsonValue *pid = shard.find("pid");
        if (state == nullptr || pid == nullptr)
            return {"", -1};
        return {state->string_value(),
                static_cast<pid_t>(pid->number_value())};
    }

    /** The pid of shard @p index if it is running, else -1. */
    pid_t running_shard_pid(unsigned index)
    {
        const auto [state, pid] = shard_status(index);
        return state == "running" ? pid : -1;
    }

    std::uint64_t restarts_total()
    {
        auto document = health();
        if (!document)
            return 0;
        const util::JsonValue *restarts =
            document.value().find("restarts_total");
        return restarts != nullptr && restarts->is_u64()
                   ? restarts->u64_value()
                   : 0;
    }

    /** Non-blocking check; remembers the exit status once seen. */
    bool exited(int poll_ms)
    {
        if (reaped_)
            return true;
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(poll_ms);
        for (;;) {
            int wait_status = 0;
            const pid_t pid = ::waitpid(pid_, &wait_status, WNOHANG);
            if (pid == pid_) {
                exit_status_ = wait_status;
                reaped_ = true;
                return true;
            }
            if (Clock::now() >= deadline)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }

    /** SIGTERM the supervisor and wait for a clean drain. */
    int terminate(int deadline_ms = 20'000)
    {
        if (!reaped_)
            ::kill(pid_, SIGTERM);
        if (!exited(deadline_ms))
            return -1;
        return exit_status_;
    }

    std::string log_text() const
    {
        std::string text;
        (void)util::read_file_bytes(log_path_, text);
        return text;
    }

  private:
    unsigned shards_ = 0;
    pid_t pid_ = -1;
    bool reaped_ = false;
    int exit_status_ = -1;
    std::string socket_path_;
    std::string cache_dir_;
    std::string log_path_;
};

} // namespace

TEST(Fleet, SupervisorRestartsASigkilledShard)
{
    if (daemon_binary() == nullptr)
        GTEST_SKIP() << "LEAKBOUNDD not set (run under CTest)";
    FleetDaemon daemon("restart", 2,
                       {"--restart-backoff-ms", "50",
                        "--restart-backoff-cap-ms", "400",
                        "--health-interval-ms", "200"});
    ASSERT_TRUE(daemon.wait_ready()) << daemon.log_text();

    const pid_t first = daemon.running_shard_pid(0);
    ASSERT_GT(first, 0) << daemon.log_text();
    ASSERT_EQ(::kill(first, SIGKILL), 0);

    // The supervisor must reap the corpse and respawn shard 0 within
    // its (tiny) backoff; a fresh pid plus a bumped restart counter is
    // the proof.
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    pid_t second = -1;
    while (Clock::now() < deadline) {
        second = daemon.running_shard_pid(0);
        if (second > 0 && second != first &&
            daemon.restarts_total() >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    EXPECT_GT(second, 0) << daemon.log_text();
    EXPECT_NE(second, first);
    EXPECT_GE(daemon.restarts_total(), 1u);

    // The revived fleet still answers run requests end to end.
    std::uint64_t failovers = 0;
    auto response = serve::call_fleet(
        daemon.fleet(), small_request(), serve::FailoverPolicy{},
        serve::kDefaultMaxFrameBytes, nullptr, &failovers);
    EXPECT_TRUE(response.has_value())
        << response.status().to_string() << "\n"
        << daemon.log_text();

    const int status = daemon.terminate();
    ASSERT_TRUE(WIFEXITED(status)) << daemon.log_text();
    EXPECT_EQ(WEXITSTATUS(status), 0) << daemon.log_text();
}

TEST(Fleet, CrashLoopBreakerTripsWithTypedReport)
{
    if (daemon_binary() == nullptr)
        GTEST_SKIP() << "LEAKBOUNDD not set (run under CTest)";
    // Two deaths tolerated inside a wide window, near-zero backoff:
    // the third SIGKILL must trip the breaker and take the whole
    // supervisor down with the typed incident report.
    FleetDaemon daemon("crashloop", 1,
                       {"--restart-limit", "2",
                        "--restart-window-s", "60",
                        "--restart-backoff-ms", "10",
                        "--restart-backoff-cap-ms", "20"});
    ASSERT_TRUE(daemon.wait_ready()) << daemon.log_text();

    const auto deadline = Clock::now() + std::chrono::seconds(20);
    pid_t last_killed = -1;
    while (!daemon.exited(0) && Clock::now() < deadline) {
        const pid_t pid = daemon.running_shard_pid(0);
        if (pid > 0 && pid != last_killed) {
            ::kill(pid, SIGKILL);
            last_killed = pid;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_TRUE(daemon.exited(2'000)) << daemon.log_text();

    const int status = daemon.terminate();
    ASSERT_TRUE(WIFEXITED(status)) << daemon.log_text();
    EXPECT_NE(WEXITSTATUS(status), 0);
    const std::string log = daemon.log_text();
    EXPECT_NE(log.find("crash_loop"), std::string::npos) << log;
    EXPECT_NE(log.find("crash-loop breaker tripped"),
              std::string::npos)
        << log;
}

TEST(Fleet, LoadFailsOverWithByteIdenticalWarmResponses)
{
    if (daemon_binary() == nullptr)
        GTEST_SKIP() << "LEAKBOUNDD not set (run under CTest)";
    const serve::RunRequest request = small_request();
    // Hermetic cold start: a cache left by a previous run would hide
    // cold-path differences between the reference and failover fleets.
    std::system("rm -rf /tmp/lbf_digest_cache");

    // First fleet's only job is to populate the shared artifact cache
    // (the cold simulation renders from_cache:false, which would never
    // byte-match a warm fleet's responses).
    {
        FleetDaemon daemon("digest", 2, {});
        ASSERT_TRUE(daemon.wait_ready()) << daemon.log_text();
        std::uint64_t failovers = 0;
        auto seeded = serve::call_fleet(
            daemon.fleet(), request, serve::FailoverPolicy{},
            serve::kDefaultMaxFrameBytes, nullptr, &failovers);
        ASSERT_TRUE(seeded.has_value())
            << seeded.status().to_string();
        EXPECT_EQ(daemon.terminate(), 0) << daemon.log_text();
    }

    // Warm fleet over the seeded cache: record the uninterrupted
    // response bytes, then pull a load through while one shard is
    // SIGKILLed mid-flight.  Failover must absorb the loss — every
    // request answered ok, one distinct response body — and the final
    // bytes must match the uninterrupted reference exactly.
    FleetDaemon daemon("digest", 2,
                       {"--restart-backoff-ms", "50",
                        "--restart-backoff-cap-ms", "400"});
    ASSERT_TRUE(daemon.wait_ready()) << daemon.log_text();
    std::string reference;
    for (const serve::Endpoint &shard : daemon.fleet()) {
        std::string raw;
        auto warmed = serve::call_endpoint(
            shard, serve::build_run_request(request),
            serve::kDefaultMaxFrameBytes, &raw);
        ASSERT_TRUE(warmed.has_value()) << warmed.status().to_string();
        if (reference.empty())
            reference = raw;
        else
            EXPECT_EQ(raw, reference)
                << "warm shards disagree before any failure";
    }

    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        for (unsigned index = 0; index < 2; ++index) {
            const pid_t pid = daemon.running_shard_pid(index);
            if (pid > 0) {
                ::kill(pid, SIGKILL);
                return;
            }
        }
    });
    serve::LoadOptions options;
    options.total = 400;
    options.concurrency = 4;
    options.fleet = daemon.fleet();
    const serve::LoadReport report =
        serve::run_load(daemon.control(), request, options);
    killer.join();

    EXPECT_EQ(report.sent, options.total);
    EXPECT_EQ(report.ok, report.sent) << daemon.log_text();
    EXPECT_EQ(report.distinct_responses, 1u);

    std::string raw;
    std::uint64_t failovers = 0;
    auto response = serve::call_fleet(
        daemon.fleet(), request, serve::FailoverPolicy{},
        serve::kDefaultMaxFrameBytes, &raw, &failovers);
    ASSERT_TRUE(response.has_value()) << response.status().to_string();
    EXPECT_EQ(raw, reference);

    EXPECT_EQ(daemon.terminate(), 0) << daemon.log_text();
}

TEST(Fleet, SigtermRightAfterAShardDiesDrainsCleanly)
{
    if (daemon_binary() == nullptr)
        GTEST_SKIP() << "LEAKBOUNDD not set (run under CTest)";
    // A shard dies and, with no restart backoff, is due again on the
    // supervisor's next tick; SIGTERM lands a few ms into that tick.
    // The supervisor's signal handler is one-shot, so a shard respawned
    // after the SIGTERM would be born with the default action and die
    // on the drain's own SIGTERM.
    for (int attempt = 0; attempt < 10; ++attempt) {
        FleetDaemon daemon("drain_race", 1,
                           {"--restart-backoff-ms", "0"});
        ASSERT_TRUE(daemon.wait_ready()) << daemon.log_text();
        const pid_t shard = daemon.running_shard_pid(0);
        ASSERT_GT(shard, 0) << daemon.log_text();
        ASSERT_EQ(::kill(shard, SIGKILL), 0);
        // Wait, without sleeping, until the supervisor has reaped the
        // corpse: a death it has not seen yet would surface in the
        // drain as this test's own SIGKILL.
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        while (daemon.shard_status(0) ==
                   std::pair<std::string, pid_t>("running", shard) &&
               Clock::now() < deadline) {
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2 + 2 * attempt));
        const int status = daemon.terminate();
        ASSERT_TRUE(WIFEXITED(status))
            << "attempt " << attempt << "\n" << daemon.log_text();
        ASSERT_EQ(WEXITSTATUS(status), 0)
            << "attempt " << attempt << "\n" << daemon.log_text();
    }
}

TEST(Fleet, SigtermTwoMsAfterAShardKillExitsCleanly)
{
    if (daemon_binary() == nullptr)
        GTEST_SKIP() << "LEAKBOUNDD not set (run under CTest)";
    // The supervisor has usually not reaped the corpse when the SIGTERM
    // lands, and under a slow teardown the shard may not even be a
    // zombie yet: the drain must count that death as a death, not as a
    // shard that failed to drain.
    for (int attempt = 0; attempt < 10; ++attempt) {
        FleetDaemon daemon("kill_then_term", 1,
                           {"--restart-backoff-ms", "0"});
        ASSERT_TRUE(daemon.wait_ready()) << daemon.log_text();
        const pid_t shard = daemon.running_shard_pid(0);
        ASSERT_GT(shard, 0) << daemon.log_text();
        ASSERT_EQ(::kill(shard, SIGKILL), 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const int status = daemon.terminate();
        ASSERT_TRUE(WIFEXITED(status))
            << "attempt " << attempt << "\n" << daemon.log_text();
        ASSERT_EQ(WEXITSTATUS(status), 0)
            << "attempt " << attempt << "\n" << daemon.log_text();
    }
}

TEST(Fleet, ChaosKillShardSeamRestartsUnderLoad)
{
    if (daemon_binary() == nullptr)
        GTEST_SKIP() << "LEAKBOUNDD not set (run under CTest)";
    if (!util::fault::kEnabled)
        GTEST_SKIP() << "fault injection compiled out (release build)";
    const serve::RunRequest request = small_request();
    // Hermetic cold start, then seed the artifact cache chaos-free:
    // a shard's response LRU pins its *first* render, and a cold
    // simulation renders from_cache:false bytes that a chaos-respawned
    // shard (which loads from the cache) would never byte-match.
    std::system("rm -rf /tmp/lbf_chaos_cache");
    {
        FleetDaemon seeder("chaos", 1, {});
        ASSERT_TRUE(seeder.wait_ready()) << seeder.log_text();
        std::uint64_t seed_failovers = 0;
        auto seeded = serve::call_fleet(
            seeder.fleet(), request, serve::FailoverPolicy{},
            serve::kDefaultMaxFrameBytes, nullptr, &seed_failovers);
        ASSERT_TRUE(seeded.has_value())
            << seeded.status().to_string();
        EXPECT_EQ(seeder.terminate(), 0) << seeder.log_text();
    }

    // The supervisor's own chaos probe fires roughly every second at
    // this rate (one roll per 50 ms tick), SIGKILLing a random live
    // shard while the client load runs.
    FleetDaemon daemon(
        "chaos", 2,
        {"--restart-backoff-ms", "20",
         "--restart-backoff-cap-ms", "100",
         "--restart-limit", "50", "--restart-window-s", "60"},
        {{"LEAKBOUND_FAULT_INJECTION", "kill_shard=0.05"}});
    ASSERT_TRUE(daemon.wait_ready()) << daemon.log_text();
    // Direct per-shard warm-ups have no failover, and the chaos probe
    // is already armed — retry through any kill that lands mid-call.
    for (const serve::Endpoint &shard : daemon.fleet()) {
        bool warmed_ok = false;
        for (int attempt = 0; attempt < 100 && !warmed_ok; ++attempt) {
            auto warmed = serve::call_endpoint(
                shard, serve::build_run_request(request),
                serve::kDefaultMaxFrameBytes, nullptr);
            if (warmed.has_value())
                warmed_ok = true;
            else
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
        }
        ASSERT_TRUE(warmed_ok) << daemon.log_text();
    }

    std::string reference;
    std::uint64_t failovers = 0;
    auto baseline = serve::call_fleet(
        daemon.fleet(), request, serve::FailoverPolicy{},
        serve::kDefaultMaxFrameBytes, &reference, &failovers);
    ASSERT_TRUE(baseline.has_value())
        << baseline.status().to_string();

    serve::LoadOptions options;
    options.total = 200;
    options.concurrency = 4;
    options.fleet = daemon.fleet();
    const serve::LoadReport report =
        serve::run_load(daemon.control(), request, options);
    EXPECT_EQ(report.ok, report.sent) << daemon.log_text();
    EXPECT_EQ(report.distinct_responses, 1u);

    // Keep the fleet alive until the seam has provably fired and the
    // supervisor has provably recovered from it.
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (daemon.restarts_total() < 1 && Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_GE(daemon.restarts_total(), 1u) << daemon.log_text();

    std::string raw;
    auto after = serve::call_fleet(
        daemon.fleet(), request, serve::FailoverPolicy{},
        serve::kDefaultMaxFrameBytes, &raw, &failovers);
    ASSERT_TRUE(after.has_value()) << after.status().to_string();
    EXPECT_EQ(raw, reference);

    // Chaos may SIGKILL a shard in the window between the last health
    // check and the drain, so the exit code is allowed to report a
    // dirty drain; what matters is that the supervisor exits at all.
    const int status = daemon.terminate();
    ASSERT_TRUE(WIFEXITED(status)) << daemon.log_text();
}

TEST(Fleet, AggregatedStatsMergeShardCountersAndFleetBlock)
{
    if (daemon_binary() == nullptr)
        GTEST_SKIP() << "LEAKBOUNDD not set (run under CTest)";
    FleetDaemon daemon("stats", 2, {});
    ASSERT_TRUE(daemon.wait_ready()) << daemon.log_text();

    // Two distinct requests so the two home shards both serve work.
    serve::RunRequest first = small_request();
    serve::RunRequest second = small_request();
    second.instructions = 30'000;
    for (const serve::RunRequest &request : {first, second}) {
        std::uint64_t failovers = 0;
        auto response = serve::call_fleet(
            daemon.fleet(), request, serve::FailoverPolicy{},
            serve::kDefaultMaxFrameBytes, nullptr, &failovers);
        ASSERT_TRUE(response.has_value())
            << response.status().to_string();
    }

    auto stats = serve::call_endpoint(daemon.control(),
                                      serve::build_stats_request(),
                                      serve::kDefaultMaxFrameBytes,
                                      nullptr);
    ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
    const util::JsonValue *served =
        stats.value().find("requests_served");
    ASSERT_NE(served, nullptr);
    EXPECT_GE(served->u64_value(), 2u);
    const util::JsonValue *fleet = stats.value().find("fleet");
    ASSERT_NE(fleet, nullptr);
    ASSERT_TRUE(fleet->is_object());
    const util::JsonValue *shards = fleet->find("shards");
    ASSERT_NE(shards, nullptr);
    EXPECT_EQ(shards->u64_value(), 2u);
    const util::JsonValue *answered = fleet->find("shards_answered");
    ASSERT_NE(answered, nullptr);
    EXPECT_EQ(answered->u64_value(), 2u);
    const util::JsonValue *broken = stats.value().find("locks_broken");
    ASSERT_NE(broken, nullptr) << "merged stats lost locks_broken";

    EXPECT_EQ(daemon.terminate(), 0) << daemon.log_text();
}
