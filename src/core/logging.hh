/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: fatal() is for user error (bad
 * configuration, invalid arguments) and exits cleanly; panic() is for
 * internal invariant violations (a HetArch bug) and aborts.  warn() and
 * inform() report conditions without stopping the program.
 */

#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace hetarch {

/**
 * The exception HETARCH_FATAL raises while a ScopedFatalCapture is
 * active on the current thread (instead of exiting the process).
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Redirect HETARCH_FATAL on the current thread: while at least one
 * capture is alive, fatalImpl throws FatalError instead of printing
 * and exiting.  This lets long-running services validate untrusted
 * input through code paths written for one-shot CLI tools (circuit
 * parsing, builder construction) without a malformed request killing
 * the daemon.  Captures nest; the thread-local flag makes concurrent
 * validations independent.  HETARCH_PANIC (internal invariants) still
 * aborts — only user-error reporting is capturable.
 */
class ScopedFatalCapture
{
  public:
    ScopedFatalCapture();
    ~ScopedFatalCapture();

    ScopedFatalCapture(const ScopedFatalCapture&) = delete;
    ScopedFatalCapture& operator=(const ScopedFatalCapture&) = delete;
};

namespace detail {

/** Stream-compose a message from parts. */
template <typename... Args>
std::string
composeMessage(Args&&... args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void fatalImpl(const std::string& msg);
[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);
void warnImpl(const std::string& msg);
void informImpl(const std::string& msg);

} // namespace detail

/**
 * Terminate because the *user* asked for something invalid (bad
 * configuration, out-of-range parameter).  Prints "fatal: MESSAGE" and
 * exits with status 1.  The message names the input at fault; the
 * library's own source location is left out (it would leak the build
 * path and differ between builds), unlike HETARCH_PANIC's.
 */
#define HETARCH_FATAL(...) \
    ::hetarch::detail::fatalImpl( \
        ::hetarch::detail::composeMessage(__VA_ARGS__))

/**
 * Terminate because an internal invariant was violated (a HetArch bug).
 * Calls abort() so a core dump / debugger can inspect the state.
 */
#define HETARCH_PANIC(...) \
    ::hetarch::detail::panicImpl(__FILE__, __LINE__, \
        ::hetarch::detail::composeMessage(__VA_ARGS__))

/** Assert an internal invariant; panics with the condition text on failure. */
#define HETARCH_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::hetarch::detail::panicImpl(__FILE__, __LINE__, \
                ::hetarch::detail::composeMessage("assertion failed: " #cond \
                                                  " ", ##__VA_ARGS__)); \
        } \
    } while (0)

/**
 * Assert an internal invariant on a hot path: compiled to nothing in
 * release builds (NDEBUG), a full HETARCH_ASSERT otherwise.  Use for
 * per-element bounds checks in accessors that production loops hit
 * millions of times per second.
 */
#ifdef NDEBUG
#define HETARCH_DEBUG_ASSERT(cond, ...) \
    do { \
    } while (0)
#else
#define HETARCH_DEBUG_ASSERT(cond, ...) HETARCH_ASSERT(cond, ##__VA_ARGS__)
#endif

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::warnImpl(detail::composeMessage(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args&&... args)
{
    detail::informImpl(detail::composeMessage(std::forward<Args>(args)...));
}

} // namespace hetarch
