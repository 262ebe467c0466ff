/**
 * @file
 * Tests that the daemon serves the same keys and bytes whichever route
 * answers a request: pinned request and config fingerprints, the
 * edge-list memo against direct derivation under concurrent callers,
 * and one request's payload through a cold daemon, its response LRU, a
 * fresh daemon over the warm cache directory, a daemon without a cache
 * directory and the offline suite runner.
 *
 * Carries the `serve` CTest label (so the tsan preset runs it) and the
 * `bytes` label (so the debug preset runs it, and with it the renderer's
 * check of carried bytes against serialize_result).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "core/experiment_request.hpp"
#include "interval/interval_histogram.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"

using namespace leakbound;
using namespace leakbound::serve;

namespace {

namespace fs = std::filesystem;

/** One wire request with its keys, computed by the pre-memo code. */
struct PinnedKey
{
    const char *body;
    std::uint64_t request;
    std::uint64_t config;
};

const PinnedKey kPinnedKeys[] = {
    {R"({"type":"run","benchmarks":["gzip"],"instructions":100000})",
     0x3a4b63578fdbbaf6ULL, 0x5a0666444b9ea6b1ULL},
    {R"({"type":"run","benchmarks":["gzip"],"instructions":200000})",
     0x40112236f3ac9f7aULL, 0xdda66f9445457e56ULL},
    {R"({"type":"run","benchmarks":["gzip"],"instructions":400000})",
     0xccbc596c09954a7dULL, 0xe3ca7cadecea4506ULL},
    {R"({"type":"run","benchmarks":["gcc"],"instructions":100000,)"
     R"("extra_edges":[777777,5,777777,123,5]})",
     0xea3063f41bbf964fULL, 0x6a01b0006e77367fULL},
    {R"({"type":"run","benchmarks":["mesa"],"instructions":100000,)"
     R"("standard_edges":false})",
     0xc82cda05781f22efULL, 0xf73609ea00136a1eULL},
    {R"({"type":"run","benchmarks":["gzip"],"instructions":100000,)"
     R"("core_count":4,"workload_mix":["stream","chase","gzip","vortex"]})",
     0xf1ee7aa94f540ff2ULL, 0x4b9e7ceb50a4f5e9ULL},
    {R"({"type":"run","benchmarks":["ammp","applu","gcc","gzip","mesa",)"
     R"("vortex"],"instructions":200000,"payload":true})",
     0x6c2fa7b75bb2a088ULL, 0xdda66f9445457e56ULL},
};

core::ExperimentRequest
decode(const std::string &body)
{
    auto parsed = util::json_parse(body);
    EXPECT_TRUE(parsed.has_value()) << body;
    auto decoded = core::decode_experiment_request(parsed.value());
    EXPECT_TRUE(decoded.has_value()) << decoded.status().to_string();
    return decoded.take();
}

/** mix_edge_list without the memo. */
std::uint64_t
derive_edge_mix(std::uint64_t state, const std::vector<Cycles> &extra)
{
    util::Fingerprint fp(state);
    fp.mix_u64_vector(interval::IntervalHistogramSet::default_edges(extra));
    return fp.digest();
}

/** A daemon on an ephemeral loopback port, served from a thread. */
class Daemon
{
  public:
    explicit Daemon(const std::string &cache_dir)
    {
        ServerConfig config;
        config.listen_tcp = true;
        config.tcp_port = 0;
        config.scheduler.workers = 2;
        config.scheduler.cache_dir = cache_dir;
        server_ = std::make_unique<Server>(std::move(config));
        EXPECT_TRUE(server_->start().ok());
        endpoint_.tcp_port = server_->tcp_port();
        thread_ = std::thread([this] {
            const util::Status served = server_->serve();
            EXPECT_TRUE(served.ok()) << served.to_string();
        });
    }

    ~Daemon()
    {
        server_->request_drain();
        thread_.join();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const Endpoint &endpoint() const { return endpoint_; }

    /** The raw response frame to @p body on a new connection. */
    std::string
    call_raw(const std::string &body) const
    {
        auto socket = connect_endpoint(endpoint_);
        EXPECT_TRUE(socket.has_value()) << socket.status().to_string();
        if (!socket)
            return {};
        EXPECT_TRUE(send_frame(socket.value(), body).ok());
        auto frame = recv_frame(socket.value());
        EXPECT_TRUE(frame.has_value()) << frame.status().to_string();
        return frame ? frame.take() : std::string();
    }

    std::uint64_t
    stat(const char *name) const
    {
        auto stats = call_endpoint(endpoint_, build_stats_request());
        EXPECT_TRUE(stats.has_value()) << stats.status().to_string();
        return stats ? stats.value().find(name)->u64_value() : 0;
    }

  private:
    std::unique_ptr<Server> server_;
    Endpoint endpoint_;
    std::thread thread_;
};

/** What one route served for one benchmark. */
struct Served
{
    std::string result_fnv;
    std::string payload; ///< decoded bytes
    bool from_cache = false;
};

std::vector<Served>
served_benchmarks(const std::string &frame)
{
    std::vector<Served> out;
    auto parsed = util::json_parse(frame);
    EXPECT_TRUE(parsed.has_value()) << frame;
    if (!parsed)
        return out;
    EXPECT_EQ(parsed.value().find("status")->string_value(), "ok")
        << frame;
    const util::JsonValue *runs = parsed.value().find("benchmarks");
    if (runs == nullptr || !runs->is_array())
        return out;
    for (const util::JsonValue &run : runs->array()) {
        Served s;
        s.result_fnv = run.find("result_fnv")->string_value();
        auto bytes = hex_decode(run.find("payload")->string_value());
        EXPECT_TRUE(bytes.has_value());
        if (bytes)
            s.payload = bytes.take();
        s.from_cache = run.find("from_cache")->bool_value();
        out.push_back(std::move(s));
    }
    return out;
}

std::string
scratch_dir(const char *name)
{
    const std::string dir = ::testing::TempDir() + name + "-" +
                            std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

} // namespace

TEST(ServedKeys, RequestAndConfigFingerprintsArePinned)
{
    for (const PinnedKey &pin : kPinnedKeys) {
        const core::ExperimentRequest request = decode(pin.body);
        EXPECT_EQ(core::fingerprint_request(request), pin.request)
            << pin.body;
        EXPECT_EQ(core::fingerprint_config(request.config), pin.config)
            << pin.body;
        // A second call answers from the memo with the same key.
        EXPECT_EQ(core::fingerprint_request(request), pin.request)
            << pin.body;
    }
}

TEST(ServedKeys, EdgeMemoMatchesDirectDerivationAcrossThreads)
{
    // More distinct (state, extras) pairs than the memo holds, so its
    // replacement runs while four callers race, plus extras too long
    // to be kept at all.
    std::vector<std::pair<std::uint64_t, std::vector<Cycles>>> cases;
    for (std::uint64_t i = 0; i < 48; ++i) {
        std::vector<Cycles> extra = core::standard_extra_edges();
        extra.push_back(1'000'003 + 7 * (i % 12));
        cases.emplace_back(0x9e3779b97f4a7c15ULL * (i / 12 + 1), extra);
    }
    std::vector<Cycles> unsorted = {900'000, 5, 900'000, 77, 5};
    cases.emplace_back(1, unsorted);
    std::vector<Cycles> long_extras;
    for (Cycles c = 3'000; long_extras.size() < 2'000; c += 3)
        long_extras.push_back(c);
    cases.emplace_back(2, long_extras);

    std::vector<std::uint64_t> expected;
    for (const auto &[state, extra] : cases)
        expected.push_back(derive_edge_mix(state, extra));

    std::vector<core::ExperimentRequest> requests;
    for (const PinnedKey &pin : kPinnedKeys)
        requests.push_back(decode(pin.body));

    std::vector<std::thread> threads;
    std::vector<int> mismatches(4, 0);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 20; ++round) {
                for (std::size_t i = 0; i < cases.size(); ++i) {
                    // Each thread walks the cases in its own order.
                    const std::size_t k =
                        (i * (2 * t + 1) + round) % cases.size();
                    if (core::mix_edge_list(cases[k].first,
                                            cases[k].second) !=
                        expected[k])
                        ++mismatches[t];
                }
                for (std::size_t i = 0; i < requests.size(); ++i)
                    if (core::fingerprint_request(requests[i]) !=
                        kPinnedKeys[i].request)
                        ++mismatches[t];
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(ServedBytes, FiveRoutesServeIdenticalPayloads)
{
    RunRequest request;
    request.benchmarks = {"gzip", "mesa"};
    request.instructions = 20'000;
    request.want_payload = true;
    const std::string body = build_run_request(request);
    const std::string cache_dir = scratch_dir("lb_served_bytes");

    std::string cold_frame, lru_frame, loaded_frame, uncached_frame;
    {
        Daemon daemon(cache_dir);
        cold_frame = daemon.call_raw(body);
        lru_frame = daemon.call_raw(body);
        EXPECT_EQ(daemon.stat("response_lru_hits"), 1u);
        EXPECT_EQ(daemon.stat("sim_runs") + daemon.stat("analytic_runs"),
                  2u);
    }
    {
        Daemon daemon(cache_dir);
        loaded_frame = daemon.call_raw(body);
        EXPECT_EQ(daemon.stat("cache_hits"), 2u);
    }
    {
        Daemon daemon("");
        uncached_frame = daemon.call_raw(body);
    }
    EXPECT_EQ(lru_frame, cold_frame)
        << "an LRU hit must replay the cold render byte for byte";

    core::ExperimentConfig config;
    config.instructions = request.instructions;
    config.extra_edges = core::standard_extra_edges();
    const std::vector<core::ExperimentResult> offline =
        core::run_suite(request.benchmarks, config);

    // The offline route renders results that carry no payload bytes.
    core::ExperimentRequest offline_request;
    offline_request.benchmarks = request.benchmarks;
    offline_request.config = config;
    offline_request.want_payload = true;
    core::SuiteOutcome offline_outcome;
    for (const core::ExperimentResult &result : offline)
        offline_outcome.slots.emplace_back(result);
    const std::string offline_frame =
        render_run_response(offline_outcome, offline_request, 0);

    const std::vector<Served> cold = served_benchmarks(cold_frame);
    const std::vector<Served> lru = served_benchmarks(lru_frame);
    const std::vector<Served> loaded = served_benchmarks(loaded_frame);
    const std::vector<Served> uncached = served_benchmarks(uncached_frame);
    const std::vector<Served> rendered = served_benchmarks(offline_frame);
    ASSERT_EQ(cold.size(), offline.size());
    ASSERT_EQ(lru.size(), offline.size());
    ASSERT_EQ(loaded.size(), offline.size());
    ASSERT_EQ(uncached.size(), offline.size());
    ASSERT_EQ(rendered.size(), offline.size());
    for (std::size_t i = 0; i < offline.size(); ++i) {
        const std::string oracle = core::serialize_result(offline[i]);
        const std::string oracle_fnv =
            util::hex64(util::fnv1a(oracle.data(), oracle.size()));
        const std::string &name = offline[i].workload;
        for (const auto &[route, served] :
             {std::pair<const char *, const Served *>{"cold", &cold[i]},
              {"lru", &lru[i]},
              {"loaded", &loaded[i]},
              {"uncached", &uncached[i]},
              {"offline", &rendered[i]}}) {
            EXPECT_EQ(served->payload, oracle) << route << " " << name;
            EXPECT_EQ(served->result_fnv, oracle_fnv)
                << route << " " << name;
            // The printed checksum is the served payload's, whether it
            // was carried from the artifact cache or computed here.
            EXPECT_EQ(served->result_fnv,
                      util::hex64(util::fnv1a(served->payload.data(),
                                              served->payload.size())))
                << route << " " << name;
        }
        EXPECT_FALSE(cold[i].from_cache) << name;
        EXPECT_TRUE(loaded[i].from_cache) << name;
        EXPECT_FALSE(uncached[i].from_cache) << name;
    }
    fs::remove_all(cache_dir);
}

TEST(ServedBytes, InPlaceLruReplyKeepsRequestOrder)
{
    // An LRU hit answered on the loop must still wait behind an earlier
    // request of its connection that a worker is running.
    Daemon daemon("");
    RunRequest warm;
    warm.benchmarks = {"gzip"};
    warm.instructions = 20'000;
    const std::string warm_body = build_run_request(warm);
    const std::string warm_frame = daemon.call_raw(warm_body);

    RunRequest cold = warm;
    cold.benchmarks = {"mesa"};
    auto socket = connect_endpoint(daemon.endpoint());
    ASSERT_TRUE(socket.has_value()) << socket.status().to_string();
    ASSERT_TRUE(send_frame(socket.value(), build_run_request(cold)).ok());
    ASSERT_TRUE(send_frame(socket.value(), warm_body).ok());
    ASSERT_TRUE(send_frame(socket.value(), build_ping_request()).ok());

    auto first = recv_frame(socket.value());
    ASSERT_TRUE(first.has_value()) << first.status().to_string();
    auto parsed = util::json_parse(first.value());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed.value()
                  .find("benchmarks")
                  ->array()[0]
                  .find("benchmark")
                  ->string_value(),
              "mesa")
        << "the in-place LRU reply overtook the running request";
    auto second = recv_frame(socket.value());
    ASSERT_TRUE(second.has_value()) << second.status().to_string();
    EXPECT_EQ(second.value(), warm_frame);
    auto third = recv_frame(socket.value());
    ASSERT_TRUE(third.has_value()) << third.status().to_string();
    EXPECT_EQ(util::json_parse(third.value()).value().find("type")
                  ->string_value(),
              "pong");
    EXPECT_EQ(daemon.stat("response_lru_hits"), 1u);
}
