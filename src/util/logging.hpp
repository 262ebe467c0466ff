/**
 * @file
 * gem5-style status and error reporting.
 *
 * Severity model follows the gem5 convention:
 *   - panic():  an internal invariant was violated; this is a leakbound
 *               bug.  Aborts (may dump core).
 *   - fatal():  the *user* asked for something impossible (bad config,
 *               inconsistent parameters).  Prints a clean message and
 *               exits with status 2 — never aborts, never dumps core.
 *   - warn():   something is suspicious but simulation can continue.
 *   - inform(): neutral progress/status messages.
 *
 * All functions accept printf-free, iostream-free std::format-like usage
 * via a simple string assembly helper to keep call sites terse.
 */

#ifndef LEAKBOUND_UTIL_LOGGING_HPP
#define LEAKBOUND_UTIL_LOGGING_HPP

#include <sstream>
#include <string>
#include <string_view>

namespace leakbound::util {

/** Verbosity levels for inform() output. */
enum class Verbosity {
    Quiet,   ///< only warnings and errors
    Normal,  ///< default: progress messages
    Debug,   ///< everything, including per-phase detail
};

/** Set the process-wide verbosity for inform()/debug(). */
void set_verbosity(Verbosity v);

/** Current process-wide verbosity. */
Verbosity verbosity();

/** @return true if debug-level messages are enabled. */
bool debug_enabled();

/** @return true unless inform() output is suppressed (Verbosity::Quiet). */
bool inform_enabled();

namespace detail {

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panic_impl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatal_impl(const std::string &msg);
void warn_impl(const std::string &msg);
void inform_impl(const std::string &msg);
void debug_impl(const std::string &msg);

} // namespace detail

/** Report an internal bug and abort. */
template <typename... Args>
[[noreturn]] void
panic_at(const char *file, int line, Args &&...args)
{
    detail::panic_impl(file, line, detail::concat(std::forward<Args>(args)...));
}

/** Exit status used by fatal() for user errors. */
inline constexpr int kFatalExitCode = 2;

/** Report a user error and exit cleanly with kFatalExitCode. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatal_impl(detail::concat(std::forward<Args>(args)...));
}

/** Report a recoverable anomaly. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warn_impl(detail::concat(std::forward<Args>(args)...));
}

/** Report neutral status (suppressed under Verbosity::Quiet). */
template <typename... Args>
void
inform(Args &&...args)
{
    if (inform_enabled())
        detail::inform_impl(detail::concat(std::forward<Args>(args)...));
}

/** Report debug detail (shown only under Verbosity::Debug). */
template <typename... Args>
void
debug(Args &&...args)
{
    if (debug_enabled())
        detail::debug_impl(detail::concat(std::forward<Args>(args)...));
}

/** panic() with source location captured automatically. */
#define LEAKBOUND_PANIC(...) \
    ::leakbound::util::panic_at(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; panics with the condition text on failure. */
#define LEAKBOUND_ASSERT(cond, ...)                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::leakbound::util::panic_at(__FILE__, __LINE__,                 \
                "assertion failed: " #cond " ", ##__VA_ARGS__);             \
        }                                                                   \
    } while (0)

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_LOGGING_HPP
