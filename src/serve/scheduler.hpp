/**
 * @file
 * Deduplicating, bounded-admission scheduler of the leakboundd daemon.
 *
 * The scheduler owns the daemon's compute: a small pool of suite
 * workers draining a FIFO of admitted run requests.  Five properties
 * the server layer builds on:
 *
 *  - **Dedup.** Requests are keyed by core::fingerprint_request — the
 *    artifact cache's config fingerprint extended with the benchmark
 *    list and payload flag.  A request whose key matches one already
 *    admitted (queued *or* running) joins that job instead of
 *    enqueueing: N identical concurrent requests cost one simulation,
 *    and every waiter receives the *same* rendered response string, so
 *    responses across a dedup group are byte-identical by
 *    construction.
 *
 *  - **Response LRU.** Completed, fully-successful responses are kept
 *    in a byte-budgeted LRU keyed by the same fingerprint: a repeat of
 *    a *past* request (not just a concurrent twin) is answered from
 *    memory — no artifact-cache probe, no re-simulation, no JSON
 *    re-render — with the exact bytes the cold render produced.
 *
 *  - **Deadline shedding.** A request may carry deadline_ms; when the
 *    scheduler's completion-time estimate (EWMA of recent job wall
 *    times scaled by the backlog) exceeds it, the request is rejected
 *    `overloaded` at admission instead of occupying a queue slot it
 *    cannot convert into a useful answer.  Dedup joins and LRU hits
 *    are never shed — they are (near-)free.
 *
 *  - **Backpressure.** Admission stays bounded regardless of
 *    deadlines: when max_queue jobs are admitted-but-not-started, a
 *    new (non-duplicate) request is rejected with
 *    ErrorKind::Overloaded immediately.
 *
 *  - **Graceful drain.** drain() stops admission (new requests get
 *    ShuttingDown), fails every queued-not-started job with a
 *    ShuttingDown response (waking its waiters and firing its
 *    callbacks), and waits for running jobs to finish — an
 *    admitted-and-started experiment always completes, even under
 *    SIGTERM, because the scheduler stamps
 *    ExperimentConfig::ignore_interrupts on every job it starts.
 *
 * Two submission APIs share all of the above: blocking submit() (tests,
 * simple callers) parks the calling thread; submit_async() (the event
 * loop) never blocks — an LRU hit or a rejection is returned to the
 * caller at once, and an admitted job's completion callback fires
 * later on a scheduler worker thread, always with fully rendered
 * response bytes.
 */

#ifndef LEAKBOUND_SERVE_SCHEDULER_HPP
#define LEAKBOUND_SERVE_SCHEDULER_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_request.hpp"
#include "util/status.hpp"

namespace leakbound::serve {

/** Shape of the scheduler (the daemon's flags fill this in). */
struct SchedulerConfig
{
    /** Concurrent suite runs (worker threads). */
    unsigned workers = 1;
    /** Jobs admitted-but-not-started before Overloaded rejections. */
    std::size_t max_queue = 8;
    /** Artifact cache directory stamped on every job ("" = off). */
    std::string cache_dir;
    /** ExperimentConfig::jobs stamped on every job (0 = all threads). */
    unsigned suite_jobs = 1;
    /** Rendered-response LRU byte budget (0 = LRU off). */
    std::size_t response_cache_bytes = 64u << 20;
    /**
     * Seed for the job-cost EWMA the deadline shedder consults, in
     * milliseconds.  0 (the default) means "learn from the first
     * completed job and shed nothing until then"; tests pin it so
     * shedding is deterministic.
     */
    double assumed_job_ms = 0.0;
    /** Test seam forwarded to core::run_suite_isolated per job. */
    core::SuiteJobHook before_job;
};

/** Counters the /stats endpoint reads (monotonic unless noted). */
struct SchedulerCounters
{
    std::uint64_t submitted = 0;    ///< admission attempts
    std::uint64_t served = 0;       ///< completed-run responses delivered
    std::uint64_t dedup_hits = 0;   ///< joined an in-flight twin
    std::uint64_t response_lru_hits = 0; ///< answered from the response LRU
    std::uint64_t response_lru_evictions = 0; ///< entries pushed out by budget
    std::uint64_t cache_hits = 0;   ///< benchmarks loaded from the cache
    std::uint64_t analytic_runs = 0; ///< benchmarks the fast path skipped
    std::uint64_t sim_runs = 0;     ///< benchmarks simulated end to end
    std::uint64_t simulations = 0;  ///< suite runs actually executed
    std::uint64_t rejected_overloaded = 0; ///< queue-bound rejections
    std::uint64_t rejected_deadline = 0;   ///< deadline-shed rejections
    std::uint64_t rejected_shutting_down = 0;
    std::uint64_t locks_broken = 0; ///< stale cache locks broken mid-suite
    std::uint64_t queue_depth = 0;  ///< instantaneous: admitted, waiting
    std::uint64_t running = 0;      ///< instantaneous: executing now
    std::uint64_t response_lru_entries = 0; ///< instantaneous: cached responses
    std::uint64_t response_lru_bytes = 0;   ///< instantaneous: cached bytes
};

/**
 * The dedup/backpressure scheduler.  Thread-safe; one instance per
 * daemon.  The destructor drains.
 */
class Scheduler
{
  public:
    /**
     * Delivery of one admitted job's rendered response bytes (ok or
     * error frame — always renderable as-is).  Runs on a scheduler
     * worker, or on the thread calling drain() for a job drained
     * before it started; never with the scheduler mutex held, so a
     * callback may re-enter the scheduler.
     */
    using Completion =
        std::function<void(std::shared_ptr<const std::string>)>;

    explicit Scheduler(SchedulerConfig config);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Admit @p request and block until its response is rendered.
     * Returns the shared response string (identical object for every
     * member of a dedup group), or Overloaded / ShuttingDown when the
     * request was never admitted.
     */
    util::Expected<std::shared_ptr<const std::string>>
    submit(core::ExperimentRequest request);

    /**
     * Admit @p request without blocking.  An answer available at once
     * (an LRU hit, or a rejection rendered as an error frame) is
     * returned, and @p done is dropped unfired.  Otherwise nullptr is
     * returned and @p done later receives the rendered response bytes
     * exactly once.  The event loop's submission path: it writes an
     * immediate answer in place.
     */
    std::shared_ptr<const std::string>
    submit_async(core::ExperimentRequest request, Completion done);

    /**
     * Stop admitting, fail queued jobs with ShuttingDown, wait for
     * running jobs and join the workers.  Idempotent.
     */
    void drain();

    /** Snapshot the counters (consistent under one lock). */
    SchedulerCounters counters() const;

  private:
    struct Job
    {
        core::ExperimentRequest request;
        std::uint64_t fingerprint = 0;
        bool started = false;
        bool done = false;
        /** True when drain() failed the job before it ran; its
         *  waiters are counted as rejected_shutting_down, not served. */
        bool failed_by_drain = false;
        /** Set exactly once, before done; shared by all waiters. */
        std::shared_ptr<const std::string> response;
        /** Async waiters, fired exactly once when the job completes. */
        std::vector<Completion> callbacks;
    };

    /** What execute() hands back: bytes + whether the LRU may keep them. */
    struct Rendered
    {
        std::shared_ptr<const std::string> response;
        bool cacheable = false;
    };

    /** One admission decision, made under the lock. */
    struct Admission
    {
        /** Set for LRU hits: answer now, no job involved. */
        std::shared_ptr<const std::string> immediate;
        /** Set for rejections (Overloaded / ShuttingDown). */
        util::Status rejected;
        /** Set when admitted: the job to wait on / register with. */
        std::shared_ptr<Job> job;
    };

    Admission admit(core::ExperimentRequest &&request,
                    std::unique_lock<std::mutex> &lock);
    void worker_loop();
    Rendered execute(const core::ExperimentRequest &request,
                     std::uint64_t fingerprint);
    /** Account a completed job and fire callbacks (lock held on entry,
     *  released around the callbacks, re-held on exit). */
    void finish_job(const std::shared_ptr<Job> &job, Rendered rendered,
                    std::unique_lock<std::mutex> &lock);
    void lru_insert(std::uint64_t fingerprint,
                    std::shared_ptr<const std::string> response);
    std::shared_ptr<const std::string> lru_lookup(std::uint64_t fingerprint);

    SchedulerConfig config_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool draining_ = false;
    std::deque<std::shared_ptr<Job>> queue_;
    /** Every admitted, not-yet-done job by dedup key. */
    std::unordered_map<std::uint64_t, std::shared_ptr<Job>> inflight_;
    /** Rendered-response LRU: front = most recent.  Bytes accounted
     *  as response size + a fixed per-entry overhead. */
    struct LruEntry
    {
        std::uint64_t fingerprint;
        std::shared_ptr<const std::string> response;
    };
    std::list<LruEntry> lru_list_;
    std::unordered_map<std::uint64_t, std::list<LruEntry>::iterator>
        lru_index_;
    std::size_t lru_bytes_ = 0;
    /** EWMA of job wall time, ms (0 until the first job completes). */
    double job_ms_ewma_ = 0.0;
    SchedulerCounters counters_;
    std::vector<std::thread> workers_;
};

} // namespace leakbound::serve

#endif // LEAKBOUND_SERVE_SCHEDULER_HPP
