/**
 * @file
 * Tests of fault isolation in the suite runner and the policy grid:
 * one job dying (hook exception, typed StatusError, interrupt) must be
 * recorded in the outcome while every sibling lands byte-identical to
 * a fault-free run, in both the serial and the pooled path.
 *
 * These tests run in every build (the SuiteJobHook seam replaces the
 * fault injector, which only exists in chaos builds) and carry the
 * `sanitize` CTest label so TSan sees the failure paths too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "interval/interval_histogram.hpp"
#include "power/technology.hpp"
#include "util/interrupt.hpp"
#include "util/random.hpp"
#include "util/status.hpp"

using namespace leakbound;
using namespace leakbound::core;

namespace {

ExperimentConfig
small_config(unsigned jobs)
{
    ExperimentConfig config;
    config.instructions = 40'000;
    config.jobs = jobs;
    return config;
}

const std::vector<std::string> kNames = {"gzip", "gcc", "ammp", "vortex"};

/** A hook that throws for exactly one benchmark, every attempt. */
SuiteJobHook
poison(const std::string &victim)
{
    return [victim](const std::string &name) {
        if (name == victim)
            throw util::StatusError(util::Status(
                util::ErrorKind::CorruptData, "poisoned " + name));
    };
}

} // namespace

TEST(FaultIsolation, OneFailingJobLeavesSiblingsByteIdentical)
{
    const auto reference = run_suite(kNames, small_config(1));
    ASSERT_EQ(reference.size(), kNames.size());

    for (const unsigned jobs : {1u, 4u}) {
        SuiteOutcome outcome = run_suite_isolated(
            kNames, small_config(jobs), poison("gcc"));

        ASSERT_EQ(outcome.slots.size(), kNames.size()) << jobs;
        ASSERT_EQ(outcome.failures.size(), 1u) << jobs;
        EXPECT_FALSE(outcome.interrupted) << jobs;

        const SuiteJobFailure &failure = outcome.failures.front();
        EXPECT_EQ(failure.index, 1u);
        EXPECT_EQ(failure.workload, "gcc");
        EXPECT_EQ(failure.kind, util::ErrorKind::CorruptData);
        EXPECT_NE(failure.message.find("poisoned gcc"), std::string::npos);
        // CorruptData is not transient, so no retry was attempted.
        EXPECT_EQ(failure.retries, 0u);

        for (std::size_t i = 0; i < kNames.size(); ++i) {
            if (kNames[i] == "gcc") {
                EXPECT_FALSE(outcome.slots[i].has_value()) << jobs;
                continue;
            }
            ASSERT_TRUE(outcome.slots[i].has_value())
                << kNames[i] << " jobs=" << jobs;
            EXPECT_EQ(serialize_result(*outcome.slots[i]),
                      serialize_result(reference[i]))
                << kNames[i] << " jobs=" << jobs;
        }

        // surviving() drops exactly the failed slot, preserving order.
        auto survivors = std::move(outcome).surviving();
        ASSERT_EQ(survivors.size(), kNames.size() - 1) << jobs;
        EXPECT_EQ(survivors[0].workload, "gzip");
        EXPECT_EQ(survivors[1].workload, "ammp");
        EXPECT_EQ(survivors[2].workload, "vortex");
    }
}

TEST(FaultIsolation, TransientFailuresRetryUntilExhausted)
{
    // An io_error kind is transient: the job is retried kMaxJobRetries
    // times, and the recorded failure carries the retry count.
    std::atomic<unsigned> attempts{0};
    SuiteJobHook hook = [&attempts](const std::string &name) {
        if (name == "ammp") {
            attempts.fetch_add(1);
            throw util::StatusError(util::Status(
                util::ErrorKind::IoError, "flaky disk under " + name));
        }
    };

    SuiteOutcome outcome =
        run_suite_isolated(kNames, small_config(2), hook);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures.front().workload, "ammp");
    EXPECT_EQ(outcome.failures.front().kind, util::ErrorKind::IoError);
    EXPECT_EQ(outcome.failures.front().retries, kMaxJobRetries);
    EXPECT_EQ(attempts.load(), kMaxJobRetries + 1);
}

TEST(FaultIsolation, TransientFailureThatRecoversLeavesNoTrace)
{
    const auto reference = run_suite(kNames, small_config(1));

    // Fail the first attempt only; the retry must succeed and the
    // result must be byte-identical to a run that never failed.  With
    // a cache directory the retry builds its workload inside the
    // cache's miss callback and stores the entry.
    const std::string dir = ::testing::TempDir() + "lb_isolation_retry";
    std::filesystem::remove_all(dir);
    for (const std::string &cache_dir : {std::string(), dir}) {
        std::atomic<unsigned> attempts{0};
        SuiteJobHook hook = [&attempts](const std::string &name) {
            if (name == "vortex" && attempts.fetch_add(1) == 0)
                throw util::StatusError(util::Status(
                    util::ErrorKind::LockTimeout, "first try loses"));
        };

        ExperimentConfig config = small_config(4);
        config.cache_dir = cache_dir;
        SuiteOutcome outcome = run_suite_isolated(kNames, config, hook);
        EXPECT_TRUE(outcome.failures.empty()) << cache_dir;
        EXPECT_EQ(attempts.load(), 2u) << cache_dir;
        ASSERT_EQ(outcome.slots.size(), kNames.size());
        for (std::size_t i = 0; i < kNames.size(); ++i) {
            ASSERT_TRUE(outcome.slots[i].has_value()) << kNames[i];
            EXPECT_FALSE(outcome.slots[i]->from_cache) << kNames[i];
            EXPECT_EQ(serialize_result(*outcome.slots[i]),
                      serialize_result(reference[i]))
                << kNames[i] << " " << cache_dir;
        }
    }
    ExperimentConfig warm_config = small_config(1);
    warm_config.cache_dir = dir;
    const auto warm = run_suite(kNames, warm_config);
    for (std::size_t i = 0; i < kNames.size(); ++i) {
        EXPECT_TRUE(warm[i].from_cache) << kNames[i];
        EXPECT_EQ(serialize_result(warm[i]), serialize_result(reference[i]))
            << kNames[i];
    }
    std::filesystem::remove_all(dir);
}

TEST(FaultIsolation, PlainExceptionsLandAsInternalErrors)
{
    SuiteJobHook hook = [](const std::string &name) {
        if (name == "gzip")
            throw std::runtime_error("untyped failure");
    };
    SuiteOutcome outcome =
        run_suite_isolated(kNames, small_config(1), hook);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures.front().kind, util::ErrorKind::Internal);
    EXPECT_NE(outcome.failures.front().message.find("untyped failure"),
              std::string::npos);
    EXPECT_EQ(outcome.failures.front().retries, 0u);
}

TEST(FaultIsolation, InterruptStopsDispatchAndFlagsOutcome)
{
    util::clear_interrupt();
    // Interrupt before the run: no job may start, every slot is empty,
    // and all failures carry the interrupted kind.
    util::simulate_interrupt(SIGINT);
    SuiteOutcome outcome = run_suite_isolated(kNames, small_config(1));
    EXPECT_TRUE(outcome.interrupted);
    ASSERT_EQ(outcome.failures.size(), kNames.size());
    for (const SuiteJobFailure &failure : outcome.failures) {
        EXPECT_EQ(failure.kind, util::ErrorKind::Interrupted);
        EXPECT_EQ(failure.retries, 0u);
    }
    EXPECT_EQ(util::pending_signal(), SIGINT);
    EXPECT_EQ(util::interrupt_exit_code(), 128 + SIGINT);
    util::clear_interrupt();
    EXPECT_FALSE(util::interrupt_requested());
    EXPECT_EQ(util::interrupt_exit_code(), 0);
}

TEST(FaultIsolation, MidRunInterruptKeepsFinishedJobs)
{
    util::clear_interrupt();
    const auto reference = run_suite({"gzip"}, small_config(1));

    // Raise the interrupt from inside job 0's hook: gzip still runs to
    // completion (it already started), the remaining three jobs are
    // skipped as interrupted.
    SuiteJobHook hook = [](const std::string &name) {
        if (name == "gzip")
            util::simulate_interrupt(SIGTERM);
    };
    SuiteOutcome outcome =
        run_suite_isolated(kNames, small_config(1), hook);
    util::clear_interrupt();

    EXPECT_TRUE(outcome.interrupted);
    ASSERT_EQ(outcome.slots.size(), kNames.size());
    ASSERT_TRUE(outcome.slots[0].has_value());
    EXPECT_EQ(serialize_result(*outcome.slots[0]),
              serialize_result(reference[0]));
    ASSERT_EQ(outcome.failures.size(), kNames.size() - 1);
    for (const SuiteJobFailure &failure : outcome.failures)
        EXPECT_EQ(failure.kind, util::ErrorKind::Interrupted);
}

// ---------------------------------------------------------------------
// Policy-grid isolation.
// ---------------------------------------------------------------------

namespace {

const EnergyModel &
model70()
{
    static const EnergyModel m(
        power::node_params(power::TechNode::Nm70));
    return m;
}

/** A policy whose evaluation always dies with a typed error. */
class ThrowingPolicy : public Policy
{
  public:
    std::string name() const override { return "Throwing"; }
    Energy interval_energy(Cycles, interval::IntervalKind,
                           interval::PrefetchClass, bool) const override
    {
        throw util::StatusError(util::Status(
            util::ErrorKind::FaultInjected, "grid cell blew up"));
    }
    std::vector<Cycles> thresholds() const override { return {}; }
    Mode dominant_mode(Cycles, interval::IntervalKind,
                       interval::PrefetchClass, bool) const override
    {
        return Mode::Active;
    }
    bool is_oracle() const override { return false; }
};

/** A small deterministic interval population. */
interval::IntervalHistogramSet
tiny_population(std::uint64_t seed)
{
    util::Rng rng(seed);
    interval::IntervalHistogramSet set =
        interval::IntervalHistogramSet::with_default_edges({});
    for (int i = 0; i < 500; ++i) {
        interval::Interval iv;
        iv.kind = interval::IntervalKind::Inner;
        iv.length = rng.next_in(1, 200'000);
        iv.pf = static_cast<interval::PrefetchClass>(rng.next_below(3));
        iv.ends_in_reuse = rng.next_bool(0.5);
        set.add(iv);
    }
    set.set_run_info(256, 1'000'000);
    return set;
}

} // namespace

TEST(FaultIsolation, GridIsolatesThrowingPolicyRow)
{
    const auto set_a = tiny_population(1);
    const auto set_b = tiny_population(2);
    const auto healthy = make_always_active(model70());
    const auto drowsy = make_opt_drowsy(model70());
    ThrowingPolicy bad;

    const std::vector<const Policy *> policies = {healthy.get(), &bad,
                                                  drowsy.get()};
    const std::vector<const interval::IntervalHistogramSet *> sets = {
        &set_a, &set_b};

    for (const unsigned jobs : {1u, 4u}) {
        GridOutcome outcome =
            evaluate_policy_grid_isolated(policies, sets, jobs);
        ASSERT_EQ(outcome.cells.size(), 6u) << jobs;
        ASSERT_EQ(outcome.failures.size(), 2u) << jobs;

        // The bad policy's row (cells 2 and 3) failed with its kind...
        for (const GridFailure &failure : outcome.failures) {
            EXPECT_EQ(failure.policy, "Throwing") << jobs;
            EXPECT_EQ(failure.kind, util::ErrorKind::FaultInjected)
                << jobs;
            EXPECT_TRUE(failure.cell == 2 || failure.cell == 3) << jobs;
            EXPECT_FALSE(outcome.cells[failure.cell].has_value()) << jobs;
        }
        // ...and the healthy cells match direct evaluation exactly.
        const std::vector<const Policy *> good = {healthy.get(),
                                                  drowsy.get()};
        const std::size_t good_cells[] = {0, 1, 4, 5};
        for (const std::size_t cell : good_cells) {
            ASSERT_TRUE(outcome.cells[cell].has_value()) << jobs;
            const Policy &policy = *good[cell / 4];
            const auto &set = cell % 2 == 0 ? set_a : set_b;
            const SavingsResult direct = evaluate_policy(policy, set);
            EXPECT_EQ(outcome.cells[cell]->total, direct.total) << jobs;
            EXPECT_EQ(outcome.cells[cell]->savings, direct.savings)
                << jobs;
        }
    }

    // The all-or-nothing wrapper surfaces the first failure as a typed
    // exception.
    try {
        (void)evaluate_policy_grid(policies, sets, 2);
        FAIL() << "expected StatusError";
    } catch (const util::StatusError &e) {
        EXPECT_EQ(e.status().kind(), util::ErrorKind::FaultInjected);
        EXPECT_NE(e.status().message().find("Throwing"),
                  std::string::npos);
    }
}
