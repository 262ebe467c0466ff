/**
 * @file
 * leakbound_ledger: one run of one benchmark workload.
 *
 *   leakbound_ledger --workload suite_cold|multicore_mix|serve_mixed
 *                    --seed N --seconds S --trace 0|1 --out-dir DIR
 *                    [--setup-only] [--small]
 *
 * Writes a full report (metrics, simulated statistics, failures,
 * spans) to DIR/report-<workload>-seed<N>-trace<0|1>.json and prints
 * one JSON summary line on stdout.  Exits 1 when any output check
 * failed, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "ledger.hpp"
#include "util/logging.hpp"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace {

using namespace leakbound;
using namespace leakbound::ledger;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "leakbound_ledger: %s\nusage: leakbound_ledger --workload "
                 "suite_cold|multicore_mix|serve_mixed --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--setup-only] [--small]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                opts.workload = next();
            else if (arg == "--seed")
                opts.seed = std::stoull(next());
            else if (arg == "--seconds")
                opts.seconds = std::stod(next());
            else if (arg == "--trace")
                opts.trace = std::stoi(next()) != 0;
            else if (arg == "--out-dir")
                opts.out_dir = next();
            else if (arg == "--setup-only")
                opts.setup_only = true;
            else if (arg == "--small")
                opts.small = true;
            else
                usage(("unknown argument " + arg).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (opts.workload != "suite_cold" && opts.workload != "multicore_mix" &&
        opts.workload != "serve_mixed")
        usage("unknown --workload");
    return opts;
}

void
write_metrics(util::JsonWriter &w, const Outcome &out)
{
    w.begin_object();
    for (const Metric &m : out.metrics) {
        w.key(m.name).begin_object();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.end_object();
    }
    w.end_object();
}

/** The full report, written once at the end. */
void
write_report(const Options &opts, const Outcome &out, const Tracer &tracer)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("workload").value(opts.workload);
    w.key("seed").value(opts.seed);
    w.key("seconds").value(opts.seconds);
    w.key("trace").value(opts.trace);
    w.key("build_type").value(LEDGER_BUILD_TYPE);
    w.key("compiler").value(__VERSION__);
    w.key("held_out_seed").value(std::uint64_t{20051});
    w.key("seed_note")
        .value("the seed feeds make_benchmark in suite_cold, the "
               "heterogeneous core order in multicore_mix and the request "
               "stream in serve_mixed; multicore and serve build their "
               "workloads from names with fixed in-program seeds");
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.key("error_rate")
        .value(out.attempted ? static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted)
                             : 0.0);
    w.key("errors").value(out.errors);
    w.key("metrics");
    write_metrics(w, out);
    w.key("details").begin_object();
    for (const auto &[k, v] : out.details)
        w.key(k).value(v);
    w.end_object();
    w.key("latency_ms").begin_array();
    for (double ms : out.latency_ms)
        w.value(ms);
    w.end_array();
    w.key("simulated_stats");
    out.stats.write(w);
    w.key("spans");
    tracer.write(w);
    w.end_object();
    const std::string path = opts.out_dir + "/report-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + "-trace" +
                             (opts.trace ? "1" : "0") + ".json";
    if (util::Status s = util::write_text_file(path, w.str()); !s.ok())
        std::fprintf(stderr, "leakbound_ledger: %s\n", s.to_string().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    util::set_verbosity(util::Verbosity::Quiet);
    std::filesystem::create_directories(opts.out_dir);

    Tracer tracer(opts.trace);
    Outcome out;
    try {
        if (opts.workload == "suite_cold")
            out = run_suite_cold(opts, tracer);
        else if (opts.workload == "multicore_mix")
            out = run_multicore_mix(opts, tracer);
        else
            out = run_serve_mixed(opts, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "leakbound_ledger: %s\n", e.what());
        return 1;
    }

    if (opts.setup_only) {
        std::printf("{\"setup_done\": %.9f}\n", out.setup_done);
        return 0;
    }
    write_report(opts, out, tracer);

    util::JsonWriter w;
    w.begin_object();
    w.key("correct").value(out.failed == 0);
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.key("setup_done").value(out.setup_done);
    w.key("metrics");
    write_metrics(w, out);
    w.end_object();
    std::string line = w.str();
    for (char &c : line)
        if (c == '\n')
            c = ' ';
    std::printf("%s\n", line.c_str());
    for (const std::string &e : out.errors)
        std::fprintf(stderr, "leakbound_ledger: check failed: %s\n",
                     e.c_str());
    return out.failed == 0 ? 0 : 1;
}
