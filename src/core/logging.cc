#include "core/logging.hh"

namespace hetarch {

namespace {

/** Nesting depth of ScopedFatalCapture on this thread. */
thread_local int fatalCaptureDepth = 0;

} // namespace

ScopedFatalCapture::ScopedFatalCapture()
{
    ++fatalCaptureDepth;
}

ScopedFatalCapture::~ScopedFatalCapture()
{
    --fatalCaptureDepth;
}

namespace detail {

[[noreturn]] void
fatalImpl(const std::string& msg)
{
    if (fatalCaptureDepth > 0)
        throw FatalError(msg);
    std::cerr << "fatal: " << msg << "\n";
    std::exit(1);
}

[[noreturn]] void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::cerr << "panic: " << msg << " (" << file << ":" << line << ")\n";
    std::abort();
}

void
warnImpl(const std::string& msg)
{
    std::cerr << "warn: " << msg << "\n";
}

void
informImpl(const std::string& msg)
{
    std::cout << "info: " << msg << "\n";
}

} // namespace detail
} // namespace hetarch
