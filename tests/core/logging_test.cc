/**
 * @file
 * Tests for the status/error reporting helpers.
 */

#include <gtest/gtest.h>

#include "core/logging.hh"

namespace hetarch {
namespace {

TEST(Logging, FatalExitsWithStatusOne)
{
    // A user error names the input, not the library's source line: the
    // message ends the line.
    EXPECT_EXIT(HETARCH_FATAL("bad config value ", 42),
                ::testing::ExitedWithCode(1), "fatal: bad config value 42\n");
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(HETARCH_PANIC("invariant ", "broken"),
                 "invariant broken");
}

TEST(Logging, AssertPassesOnTrue)
{
    HETARCH_ASSERT(1 + 1 == 2, "arithmetic works");
    SUCCEED();
}

TEST(Logging, AssertDiesOnFalseWithConditionText)
{
    EXPECT_DEATH(HETARCH_ASSERT(2 + 2 == 5, "message ", 7),
                 "2 \\+ 2 == 5");
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    warn("just a warning ", 1);
    inform("status ", 2.5);
    SUCCEED();
}

} // namespace
} // namespace hetarch
