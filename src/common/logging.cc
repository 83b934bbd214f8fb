#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>

namespace lotus {

namespace {
std::atomic<bool> inform_enabled{true};
} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    // Flush every stdio stream, then leave without running static or
    // thread_local destructors: fatal() can fire while worker threads
    // still run (e.g. DataLoader::reconfigure mid-epoch), and exit()
    // would destroy the metrics registry under them, or wait forever
    // in a destructor on a lock that a worker (or, in a forked child,
    // a thread that no longer exists) holds.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!inform_enabled.load(std::memory_order_relaxed))
        return;
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
setInformEnabled(bool enabled)
{
    inform_enabled.store(enabled, std::memory_order_relaxed);
}

} // namespace lotus
