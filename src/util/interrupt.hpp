/**
 * @file
 * Cooperative SIGINT/SIGTERM handling for long batch runs.
 *
 * A sweep over six benchmarks times many configs can run for minutes;
 * Ctrl-C used to discard every in-flight job's work.  Instead, the
 * bench binaries install an async-signal-safe handler that only sets a
 * flag; the suite runner polls it between (and at the start of) jobs,
 * stops dispatching, records the skipped jobs as `interrupted`
 * failures, and the report writer flushes a partial JSON report marked
 * `"interrupted": true` before exiting 128+signal.
 *
 * The handler installs with SA_RESETHAND: a second Ctrl-C falls back
 * to the default action and kills the process immediately, so a stuck
 * shutdown can always be escaped.
 */

#ifndef LEAKBOUND_UTIL_INTERRUPT_HPP
#define LEAKBOUND_UTIL_INTERRUPT_HPP

namespace leakbound::util {

/**
 * Install the flag-setting SIGINT/SIGTERM handlers (idempotent; the
 * first call wins).  Safe to call from any binary's startup path.
 */
void install_signal_handlers();

/** Has SIGINT/SIGTERM been observed since the last clear? */
bool interrupt_requested();

/** The observed signal number, or 0 when none is pending. */
int pending_signal();

/**
 * Conventional exit status for the pending signal (128 + signo), or 0
 * when no interrupt is pending.
 */
int interrupt_exit_code();

/** Record @p signal as if it had been delivered (tests). */
void simulate_interrupt(int signal);

/** Clear any pending interrupt (tests). */
void clear_interrupt();

/**
 * In a freshly forked child: install the handlers afresh (the parent's
 * one-shot handler may already have fired and reset to the default)
 * and clear any interrupt inherited from the parent.  Call it with
 * SIGINT and SIGTERM blocked and unblock them afterwards, so a signal
 * sent to the child since the fork is handled, not lost.
 */
void rearm_after_fork();

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_INTERRUPT_HPP
