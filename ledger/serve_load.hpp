/**
 * @file
 * The serve_mixed traffic: a seeded request catalog and stream, an
 * in-process leakboundd, and a closed-loop client over two persistent
 * connections.
 */

#ifndef LEAKBOUND_LEDGER_SERVE_LOAD_HPP
#define LEAKBOUND_LEDGER_SERVE_LOAD_HPP

#include <cstdint>
#include <vector>

#include "ledger.hpp"

namespace leakbound::ledger {

/** Shape of the serve traffic. */
struct ServeSpec
{
    /** Instruction budgets of the catalog (several small ones). */
    std::vector<std::uint64_t> budgets;
    /** Requests per daemon lifetime ("round"). */
    std::size_t requests_per_round = 0;
    /** Seeds the popularity order and the request draws. */
    std::uint64_t seed = 1;
};

/** The workload's traffic, or a small probe of it for other workloads. */
ServeSpec serve_spec(const Options &opts, bool probe);

/**
 * Run one traced round of @p spec against a fresh daemon and report
 * every serve.* metric: protocol parse/decode, render, ping round trip,
 * run_suite_isolated per request class and the daemon's /stats.
 * Returns the traced round's window in seconds.
 */
double report_serve_layer(const ServeSpec &spec, const Options &opts,
                          Outcome &out, Tracer &tracer);

} // namespace leakbound::ledger

#endif // LEAKBOUND_LEDGER_SERVE_LOAD_HPP
