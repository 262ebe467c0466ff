/**
 * @file
 * Implementation of gem5-style status and error reporting.
 */

#include "util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace leakbound::util {

namespace {

// Relaxed: suite workers read the level while another thread may set
// it, and no other memory is published through it.
std::atomic<Verbosity> g_verbosity{Verbosity::Normal};

} // namespace

void
set_verbosity(Verbosity v)
{
    g_verbosity.store(v, std::memory_order_relaxed);
}

Verbosity
verbosity()
{
    return g_verbosity.load(std::memory_order_relaxed);
}

bool
debug_enabled()
{
    return verbosity() == Verbosity::Debug;
}

bool
inform_enabled()
{
    return verbosity() != Verbosity::Quiet;
}

namespace detail {

void
panic_impl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
fatal_impl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::fflush(stderr);
    // User error, not a leakbound bug: exit cleanly with the documented
    // status.  Aborting (and possibly dumping core) is reserved for
    // panic(), which signals a violated internal invariant.
    std::exit(kFatalExitCode);
}

void
warn_impl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform_impl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
debug_impl(const std::string &msg)
{
    std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

} // namespace detail

} // namespace leakbound::util
