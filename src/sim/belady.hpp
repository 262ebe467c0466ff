/**
 * @file
 * Offline Belady-MIN (OPT) cache simulation.
 *
 * The paper frames its contribution as "Belady's MIN for leakage":
 * just as MIN bounds every replacement policy's miss rate, the oracle
 * interval policy bounds every leakage policy's savings.  This module
 * provides actual MIN over a recorded block stream, used (a) to
 * validate the online replacement policies in tests — no online
 * policy may miss less — and (b) by the replacement ablation bench to
 * show how far LRU sits from optimal on the synthetic suite.
 *
 * Two-pass algorithm: a backward pass computes each access's next-use
 * distance; the forward pass evicts the resident block with the
 * farthest next use.
 */

#ifndef LEAKBOUND_SIM_BELADY_HPP
#define LEAKBOUND_SIM_BELADY_HPP

#include <vector>

#include "sim/cache.hpp"
#include "util/types.hpp"

namespace leakbound::sim {

/** Result of an offline MIN simulation. */
struct BeladyResult
{
    CacheStats stats;          ///< aggregate counts
    std::vector<bool> hits;    ///< per-access hit flag (input order)
};

/**
 * Simulate Belady-MIN over a stream of byte addresses for the given
 * geometry.  The whole stream must be available up front (that is the
 * point of MIN).  Throws util::StatusError when @p config fails
 * CacheConfig::validate().
 */
BeladyResult simulate_belady(const CacheConfig &config,
                             const std::vector<Addr> &addresses);

} // namespace leakbound::sim

#endif // LEAKBOUND_SIM_BELADY_HPP
