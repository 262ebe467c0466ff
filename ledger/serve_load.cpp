/**
 * @file
 * The serve_mixed workload (see serve_load.hpp).
 *
 * A round is one daemon lifetime: a fresh artifact-cache directory, a
 * fresh leakboundd (no --shards, 2 scheduler workers, default response
 * LRU) and a fixed number of requests driven by two client threads,
 * each waiting for its reply before sending the next (a closed loop of
 * two callers, like leakbound-client users).  Every request lands in
 * one of three classes, known from the generator's own bookkeeping:
 *   cold   — names a (benchmark, budget) pair not seen this round, so
 *            the daemon simulates and stores it;
 *   loaded — a new subset or payload variant over pairs already seen,
 *            so the daemon reads artifact entries and renders;
 *   lru    — a repeat of a variant, answered from the response LRU.
 */

#include "serve_load.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unistd.h>

#include "core/artifact_cache.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/fingerprint.hpp"
#include "util/random.hpp"
#include "workload/spec_suite.hpp"

namespace leakbound::ledger {

namespace {

enum class Kind : std::uint8_t { Cold, Loaded, Lru };

const char *
kind_name(Kind k)
{
    switch (k) {
      case Kind::Cold:
        return "cold";
      case Kind::Loaded:
        return "loaded";
      case Kind::Lru:
        return "lru";
    }
    return "?";
}

/** One entry of the request catalog. */
struct Variant
{
    std::vector<std::string> benchmarks;
    std::uint64_t budget = 0;
    bool payload = false;
    std::string body; ///< the wire request
};

/**
 * Subsets of the six paper benchmarks × budgets × want_payload: the six
 * singletons, six neighbouring pairs, two interleaved triples and the
 * whole suite.  The seed only renames the benchmarks (a permutation of
 * the six), so every seed draws the same mix of subset sizes, budgets
 * and payloads.
 */
std::vector<Variant>
make_catalog(const ServeSpec &spec)
{
    std::vector<std::string> names = workload::suite_names();
    util::Rng rename(spec.seed);
    for (std::size_t i = names.size(); i > 1; --i)
        std::swap(names[i - 1], names[rename.next_below(i)]);
    const std::size_t n = names.size();
    std::vector<std::vector<std::size_t>> subsets;
    for (std::size_t i = 0; i < n; ++i)
        subsets.push_back({i});
    for (std::size_t i = 0; i < n; ++i)
        subsets.push_back({i, (i + 1) % n});
    subsets.push_back({0, 2, 4});
    subsets.push_back({1, 3, 5});
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i)
        all[i] = i;
    subsets.push_back(all);

    std::vector<Variant> catalog;
    for (const auto &subset : subsets) {
        for (std::uint64_t budget : spec.budgets) {
            for (bool payload : {false, true}) {
                serve::RunRequest r;
                for (std::size_t i : subset)
                    r.benchmarks.push_back(names[i]);
                r.instructions = budget;
                r.want_payload = payload;
                catalog.push_back(
                    {r.benchmarks, budget, payload,
                     serve::build_run_request(r)});
            }
        }
    }
    return catalog;
}

/** One request of a round's stream. */
struct Planned
{
    std::size_t variant = 0;
    Kind kind = Kind::Lru;
    std::uint64_t new_instructions = 0; ///< budget × pairs first seen
};

/**
 * Round @p round's stream: Zipf(1) popularity over one fixed shuffle of
 * the catalog, seeded draws, classified in stream order.
 */
std::vector<Planned>
make_stream(const ServeSpec &spec, const std::vector<Variant> &catalog,
            std::uint64_t round)
{
    std::vector<std::size_t> order(catalog.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    util::Rng perm(0x5eed0f1ed9e7ULL);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[perm.next_below(i)]);
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t r = 0; r < order.size(); ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf.push_back(total);
    }

    util::Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 2 + round);
    std::set<std::pair<std::string, std::uint64_t>> pairs;
    std::set<std::size_t> variants;
    std::vector<Planned> stream;
    for (std::size_t i = 0; i < spec.requests_per_round; ++i) {
        const double u = static_cast<double>(rng.next_u64() >> 11) *
                         0x1.0p-53 * total;
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        Planned p;
        p.variant = order[std::min(rank, order.size() - 1)];
        const Variant &v = catalog[p.variant];
        if (!variants.insert(p.variant).second) {
            p.kind = Kind::Lru;
        } else {
            for (const std::string &b : v.benchmarks)
                if (pairs.insert({b, v.budget}).second)
                    p.new_instructions += v.budget;
            p.kind = p.new_instructions ? Kind::Cold : Kind::Loaded;
        }
        stream.push_back(p);
    }
    return stream;
}

/** What the offline run of one (benchmark, budget) pair produced. */
struct Reference
{
    std::string fnv;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
};

/**
 * Offline references: core::run_experiment of each (benchmark,
 * budget) pair, configured by decoding the same wire request the
 * daemon decodes.
 */
class References
{
  public:
    const Reference &
    get(const Variant &v, const std::string &name)
    {
        const auto key = std::make_pair(name, v.budget);
        auto it = refs_.find(key);
        if (it != refs_.end())
            return it->second;
        core::ExperimentResult r = run(v, name);
        const std::string bytes = core::serialize_result(r);
        Reference ref{util::hex64(util::fnv1a(bytes.data(), bytes.size())),
                      r.core.instructions, r.core.cycles};
        results_.emplace(key, std::move(r));
        return refs_.emplace(key, ref).first->second;
    }

    /** The offline result of (@p name, @p v.budget); runs it if needed. */
    const core::ExperimentResult &
    result(const Variant &v, const std::string &name)
    {
        (void)get(v, name);
        return results_.at({name, v.budget});
    }

    /** The request the daemon decodes from @p v's body. */
    static core::ExperimentRequest
    decode(const Variant &v)
    {
        auto parsed = util::json_parse(v.body);
        auto decoded = core::decode_experiment_request(parsed.value());
        return decoded.take();
    }

  private:
    core::ExperimentResult
    run(const Variant &v, const std::string &name)
    {
        const core::ExperimentRequest request = decode(v);
        auto w = workload::make_benchmark(name);
        return core::run_experiment(*w, request.config);
    }

    std::map<std::pair<std::string, std::uint64_t>, Reference> refs_;
    std::map<std::pair<std::string, std::uint64_t>, core::ExperimentResult>
        results_;
};

/** An in-process leakboundd on an ephemeral loopback port. */
class Daemon
{
  public:
    explicit Daemon(const std::string &cache_dir)
    {
        serve::ServerConfig config;
        config.listen_tcp = true;
        config.scheduler.workers = 2;
        config.scheduler.cache_dir = cache_dir;
        server_ = std::make_unique<serve::Server>(config);
        if (util::Status started = server_->start(); !started.ok())
            throw util::StatusError(started);
        thread_ = std::thread([this] { (void)server_->serve(); });
        endpoint_.tcp_port = server_->tcp_port();
    }

    ~Daemon()
    {
        server_->request_drain();
        thread_.join();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    util::net::Socket
    connect() const
    {
        auto socket = serve::connect_endpoint(endpoint_);
        if (!socket)
            throw util::StatusError(socket.status());
        return socket.take();
    }

  private:
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
    serve::Endpoint endpoint_;
};

/** A daemon, its fresh cache directory and two client connections. */
struct DaemonRun
{
    std::string dir;
    std::unique_ptr<Daemon> daemon;
    util::net::Socket conn[2];

    DaemonRun(const std::string &out_dir, std::uint64_t round)
        : dir(out_dir + "/serve-cache-" + std::to_string(::getpid()) + "-" +
              std::to_string(round))
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        daemon = std::make_unique<Daemon>(dir);
        conn[0] = daemon->connect();
        conn[1] = daemon->connect();
    }

    ~DaemonRun()
    {
        conn[0].close();
        conn[1].close();
        daemon.reset();
        std::filesystem::remove_all(dir);
    }

    DaemonRun(const DaemonRun &) = delete;
    DaemonRun &operator=(const DaemonRun &) = delete;
};

/** One client-measured request. */
struct Record
{
    Clock::time_point begin;
    Clock::time_point end;
    bool ok = false;
    std::string error;
};

/** What one round measured. */
struct Round
{
    double window_s = 0.0;
    std::vector<Record> records;
    /** Frames to verify semantically: (variant, bytes). */
    std::vector<std::pair<std::size_t, std::string>> frames;
};

Round
run_round(DaemonRun &run, const std::vector<Variant> &catalog,
          const std::vector<Planned> &stream)
{
    Round round;
    round.records.resize(stream.size());
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::map<std::size_t, std::uint64_t> first_fnv;

    auto client = [&](util::net::Socket &socket) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= stream.size())
                return;
            const std::size_t v = stream[i].variant;
            Record &rec = round.records[i];
            rec.begin = Clock::now();
            util::Status sent = serve::send_frame(socket, catalog[v].body);
            auto frame = sent.ok()
                             ? serve::recv_frame(socket)
                             : util::Expected<std::string>(sent);
            rec.end = Clock::now();
            if (!frame) {
                rec.error = frame.status().to_string();
                continue;
            }
            rec.ok = true;
            const std::string &bytes = frame.value();
            const std::uint64_t fnv = util::fnv1a(bytes.data(), bytes.size());
            // A repeat that matches the variant's first frame byte for
            // byte needs no second parse; anything else is verified.
            std::lock_guard<std::mutex> lock(mutex);
            auto [it, fresh] = first_fnv.emplace(v, fnv);
            if (fresh || it->second != fnv)
                round.frames.emplace_back(v, frame.take());
        }
    };

    const auto begin = Clock::now();
    std::thread second([&] { client(run.conn[1]); });
    client(run.conn[0]);
    second.join();
    round.window_s = since(begin);
    return round;
}

/**
 * Check one response frame against the offline references; returns an
 * empty string when every benchmark matches.
 */
std::string
verify_frame(const Variant &v, const std::string &frame, References &refs)
{
    auto parsed = util::json_parse(frame);
    if (!parsed)
        return "unparsable response: " + parsed.status().to_string();
    const util::JsonValue &body = parsed.value();
    const util::JsonValue *status = body.find("status");
    if (!status || !status->is_string() || status->string_value() != "ok")
        return "error response: " + frame.substr(0, 200);
    const util::JsonValue *benchmarks = body.find("benchmarks");
    if (!benchmarks || !benchmarks->is_array() ||
        benchmarks->array().size() != v.benchmarks.size())
        return "response lacks the requested benchmarks";
    for (std::size_t j = 0; j < v.benchmarks.size(); ++j) {
        const util::JsonValue &b = benchmarks->array()[j];
        const util::JsonValue *name = b.find("benchmark");
        const util::JsonValue *fnv = b.find("result_fnv");
        const util::JsonValue *cycles = b.find("cycles");
        if (!name || !name->is_string() ||
            name->string_value() != v.benchmarks[j] || !fnv ||
            !fnv->is_string() || !cycles || !cycles->is_u64())
            return "malformed benchmark entry";
        const Reference &ref = refs.get(v, v.benchmarks[j]);
        if (fnv->string_value() != ref.fnv || cycles->u64_value() != ref.cycles)
            return v.benchmarks[j] + "@" + std::to_string(v.budget) +
                   ": result_fnv " + fnv->string_value() +
                   " differs from the offline " + ref.fnv;
        if (v.payload) {
            const util::JsonValue *payload = b.find("payload");
            if (!payload || !payload->is_string())
                return "payload missing";
            auto bytes = serve::hex_decode(payload->string_value());
            if (!bytes ||
                util::hex64(util::fnv1a(bytes.value().data(),
                                        bytes.value().size())) != ref.fnv)
                return "payload does not hash to result_fnv";
        }
    }
    return "";
}

/**
 * Totals over rounds, per request class; times at the calibrated
 * reference speed (see Calibration).
 */
struct Load
{
    double window_s = 0.0;
    double raw_window_s = 0.0;
    std::uint64_t requests = 0;
    std::vector<double> latency_ms;
    double cold_s = 0.0;
    std::uint64_t cold_new_instructions = 0;
    std::map<Kind, std::uint64_t> per_kind;
};

/**
 * Fold @p round into @p load and @p out: attempts, failures (error
 * replies and frames that disagree with the offline references) and
 * latencies.  @p verified remembers frames already proved correct.
 */
void
account(const Round &round, double factor,
        const std::vector<Variant> &catalog,
        const std::vector<Planned> &stream, References &refs,
        std::set<std::uint64_t> &verified, Load &load, Outcome &out)
{
    load.window_s += round.window_s * factor;
    load.raw_window_s += round.window_s;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Record &rec = round.records[i];
        ++load.requests;
        ++load.per_kind[stream[i].kind];
        out.check(rec.ok, "request " + std::to_string(i) + ": " + rec.error);
        if (!rec.ok)
            continue;
        const double s = seconds(rec.begin, rec.end) * factor;
        load.latency_ms.push_back(s * 1e3);
        if (stream[i].kind == Kind::Cold) {
            load.cold_s += s;
            load.cold_new_instructions += stream[i].new_instructions;
        }
    }
    for (const auto &[v, frame] : round.frames) {
        const std::uint64_t fnv = util::fnv1a(frame.data(), frame.size());
        if (verified.count(fnv))
            continue;
        const std::string why = verify_frame(catalog[v], frame, refs);
        out.check(why.empty(), why);
        if (why.empty())
            verified.insert(fnv);
    }
}

/** The end-to-end metrics of the service load. */
void
report_load(const Load &load, const Calibration &cal, Outcome &out)
{
    out.metric("host_ns_per_instr", "ns",
               load.cold_new_instructions
                   ? load.cold_s * 1e9 /
                         static_cast<double>(load.cold_new_instructions)
                   : 0.0);
    out.metric("req_per_s", "1/s",
               static_cast<double>(load.requests) / load.window_s);
    out.metric("latency_p50_ms", "ms", quantile(load.latency_ms, 0.50));
    out.metric("latency_p99_ms", "ms", quantile(load.latency_ms, 0.99));
    out.latency_ms = load.latency_ms;
    out.details.push_back(
        {"latency_samples", static_cast<double>(load.latency_ms.size())});
    out.details.push_back(
        {"raw.req_per_s",
         static_cast<double>(load.requests) / load.raw_window_s});
    out.details.push_back({"calibration.median_s", cal.median_seconds()});
    for (const auto &[kind, count] : load.per_kind)
        out.details.push_back({std::string("requests.") + kind_name(kind),
                               static_cast<double>(count)});
}

/** The fig8 error over the six benchmarks at the largest budget. */
double
fig8_error(const std::vector<Variant> &catalog, References &refs)
{
    const Variant *widest = nullptr;
    for (const Variant &v : catalog)
        if (v.benchmarks.size() == workload::suite_names().size() &&
            (!widest || v.budget > widest->budget))
            widest = &v;
    std::vector<const interval::IntervalHistogramSet *> ip, dp;
    for (const std::string &name : widest->benchmarks) {
        const core::ExperimentResult &r = refs.result(*widest, name);
        ip.push_back(&r.icache.intervals);
        dp.push_back(&r.dcache.intervals);
    }
    return fig8_grid(ip, dp).abs_err_pts;
}

/** A u64 field of a /stats reply (0 when absent). */
double
stat(const util::JsonValue &stats, const char *key)
{
    const util::JsonValue *v = stats.find(key);
    return v && v->is_u64() ? static_cast<double>(v->u64_value()) : 0.0;
}

} // namespace

ServeSpec
serve_spec(const Options &opts, bool probe)
{
    ServeSpec spec;
    spec.seed = opts.seed;
    if (opts.small) {
        spec.budgets = {20'000, 40'000};
        spec.requests_per_round = probe ? 60 : 200;
    } else if (probe) {
        spec.budgets = {50'000};
        spec.requests_per_round = 300;
    } else {
        spec.budgets = {100'000, 200'000, 400'000};
        spec.requests_per_round = 2000;
    }
    return spec;
}

Outcome
run_serve_mixed(const Options &opts, Tracer &tracer)
{
    Outcome out;
    const ServeSpec spec = serve_spec(opts, false);
    (void)core::standard_extra_edges();
    const std::vector<Variant> catalog = make_catalog(spec);
    std::uint64_t round_no = 0;
    std::vector<Planned> stream = make_stream(spec, catalog, round_no);
    auto daemon_run = std::make_unique<DaemonRun>(opts.out_dir, round_no);
    out.setup_done = monotonic_now();
    if (opts.setup_only)
        return out;

    References refs;
    std::set<std::uint64_t> verified;

    if (!opts.trace) {
        Load load;
        Calibration cal;
        cal.sample();
        const auto begin = Clock::now();
        for (;;) {
            const Round round = run_round(*daemon_run, catalog, stream);
            cal.sample();
            account(round, cal.factor(), catalog, stream, refs, verified,
                    load, out);
            daemon_run.reset();
            if (round_no >= 1 && since(begin) >= opts.seconds)
                break;
            stream = make_stream(spec, catalog, ++round_no);
            daemon_run = std::make_unique<DaemonRun>(opts.out_dir, round_no);
        }
        report_load(load, cal, out);
        out.metric("fig8_abs_err_pts", "pts", fig8_error(catalog, refs));
        out.metric("peak_rss_mb", "MB", peak_rss_mb());
        out.details.push_back({"rounds", static_cast<double>(round_no + 1)});
        return out;
    }

    // Traced: the first round untraced, then again with request spans
    // (report_serve_layer); the window difference is the overhead.
    Load untraced;
    account(run_round(*daemon_run, catalog, stream), 1.0, catalog, stream,
            refs, verified, untraced, out);
    daemon_run.reset();
    const double traced_s = report_serve_layer(spec, opts, out, tracer);
    out.metric("trace.overhead_pct", "%",
               (traced_s - untraced.window_s) / untraced.window_s * 100.0);

    LayerTotals totals;
    std::vector<const core::ExperimentResult *> results;
    const Variant *widest = nullptr;
    for (const Variant &v : catalog)
        if (v.benchmarks.size() == workload::suite_names().size() &&
            (!widest || v.budget > widest->budget))
            widest = &v;
    std::vector<core::ExperimentResult> captured;
    const core::ExperimentConfig config =
        References::decode(*widest).config;
    for (const std::string &name : widest->benchmarks)
        captured.push_back(
            capture_and_replay({name, 0}, config, totals, out, tracer));
    report_single_core_layers(totals, out);
    for (const auto &r : captured)
        results.push_back(&r);
    report_core_layer(results, opts.out_dir, out, tracer);
    report_multicore_probe(opts, out, tracer);
    return out;
}

double
report_serve_layer(const ServeSpec &spec, const Options &opts, Outcome &out,
                   Tracer &tracer)
{
    Scope top(tracer, "serve", "serve");
    const std::vector<Variant> catalog = make_catalog(spec);
    const std::vector<Planned> stream = make_stream(spec, catalog, 0);
    References refs;
    std::set<std::uint64_t> verified;
    Load load;

    // A traced round: request spans come from the client's own clocks.
    util::JsonValue stats;
    std::vector<double> ping_us;
    double window_s = 0.0;
    {
        DaemonRun run(opts.out_dir, 1000);
        const auto begin = Clock::now();
        const Round round = run_round(run, catalog, stream);
        const long parent =
            tracer.add("serve.round", "r0", top.index(), begin, Clock::now());
        for (std::size_t i = 0; i < stream.size(); ++i)
            tracer.add(std::string("serve.request.") +
                           kind_name(stream[i].kind),
                       "r0/" + std::to_string(i), parent,
                       round.records[i].begin, round.records[i].end);
        window_s = round.window_s;
        account(round, 1.0, catalog, stream, refs, verified, load, out);

        // The event loop plus framing, with no work behind it.
        for (int k = 0; k < 200; ++k) {
            const auto t0 = Clock::now();
            auto pong = serve::call(run.conn[0], serve::build_ping_request());
            ping_us.push_back(since(t0) * 1e6);
            out.check(pong.has_value(),
                      "ping: " + pong.status().to_string());
        }
        auto reply = serve::call(run.conn[0], serve::build_stats_request());
        out.check(reply.has_value(), "stats: " + reply.status().to_string());
        if (reply)
            stats = reply.take();
    }
    out.metric("serve.ping_rtt_us", "us", median(ping_us));
    const double served = stat(stats, "requests_served");
    out.metric("serve.lru_hit_ratio", "ratio",
               served ? stat(stats, "response_lru_hits") / served : 0.0);
    out.metric("serve.dedup_hits", "count", stat(stats, "dedup_hits"));
    out.metric("serve.cache_hits", "count", stat(stats, "cache_hits"));
    out.metric("serve.simulations", "count",
               stat(stats, "sim_runs") + stat(stats, "analytic_runs"));

    // Protocol decode: json_parse + decode + fingerprint per request.
    std::vector<double> decode_us;
    for (int k = 0; k < 5; ++k) {
        for (const Variant &v : catalog) {
            const auto t0 = Clock::now();
            auto parsed = util::json_parse(v.body);
            auto decoded = core::decode_experiment_request(parsed.value());
            keep(core::fingerprint_request(decoded.value()));
            decode_us.push_back(since(t0) * 1e6);
        }
    }
    out.metric("serve.parse_decode_us", "us", median(decode_us));

    // Render of every catalog variant over the offline results.
    std::vector<double> render_us;
    double bytes = 0.0;
    for (const Variant &v : catalog) {
        const core::ExperimentRequest request = References::decode(v);
        core::SuiteOutcome outcome;
        for (const std::string &name : v.benchmarks)
            outcome.slots.emplace_back(refs.result(v, name));
        const std::uint64_t fp = core::fingerprint_request(request);
        const auto t0 = Clock::now();
        const std::string body =
            serve::render_run_response(outcome, request, fp);
        render_us.push_back(since(t0) * 1e6);
        bytes += static_cast<double>(body.size());
    }
    out.metric("serve.render_us", "us", median(render_us));
    out.metric("serve.response_bytes", "bytes",
               bytes / static_cast<double>(catalog.size()));

    // run_suite_isolated per request class: the whole suite at the
    // smallest budget, cold (simulate + store) then loaded.
    const Variant *suite = nullptr;
    for (const Variant &v : catalog)
        if (v.benchmarks.size() == workload::suite_names().size() &&
            (!suite || v.budget < suite->budget))
            suite = &v;
    std::vector<double> cold_ms, loaded_ms;
    for (int k = 0; k < 3; ++k) {
        core::ExperimentConfig config = References::decode(*suite).config;
        config.cache_dir = opts.out_dir + "/suite-cache-" +
                           std::to_string(::getpid());
        std::filesystem::remove_all(config.cache_dir);
        Scope s(tracer, "serve.run_suite_isolated", "k" + std::to_string(k),
                top.index());
        auto t0 = Clock::now();
        core::SuiteOutcome cold =
            core::run_suite_isolated(suite->benchmarks, config);
        cold_ms.push_back(since(t0) * 1e3);
        t0 = Clock::now();
        core::SuiteOutcome loaded =
            core::run_suite_isolated(suite->benchmarks, config);
        loaded_ms.push_back(since(t0) * 1e3);
        out.check(cold.failures.empty() && loaded.failures.empty(),
                  "run_suite_isolated reported failures");
        std::filesystem::remove_all(config.cache_dir);
    }
    out.metric("serve.suite_cold_ms", "ms", median(cold_ms));
    out.metric("serve.suite_loaded_ms", "ms", median(loaded_ms));
    return window_s;
}

} // namespace leakbound::ledger
