/**
 * @file
 * Unit tests for the shared strict-JSON writer and scanner: the
 * hetarch-job-v1 wire parser sits on this token layer, so the byte
 * offsets in its diagnostics are pinned here.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/strict_json.hh"

namespace hetarch {
namespace core {
namespace json {
namespace {

/** Run @p body and return the ScanError it must throw. */
template <typename Fn>
ScanError
expectScanError(Fn&& body)
{
    try {
        body();
    } catch (const ScanError& e) {
        return e;
    }
    ADD_FAILURE() << "expected a ScanError";
    return ScanError{0, ""};
}

TEST(StrictJson, ExpectReportsOffsetOfDeviation)
{
    const std::string text = "  {\"a\": 1}";
    const ScanError e = expectScanError([&] {
        Scanner sc(text);
        sc.expect('[');
    });
    EXPECT_EQ(e.offset, 2u);
    EXPECT_NE(e.reason.find("expected '['"), std::string::npos);
}

TEST(StrictJson, UnexpectedEndReportsEndOffset)
{
    const std::string text = "{\"key\"";
    const ScanError e = expectScanError([&] {
        Scanner sc(text);
        sc.expect('{');
        sc.expectKey("key");
    });
    EXPECT_EQ(e.offset, text.size());
}

TEST(StrictJson, WrongKeyNamesBothKeys)
{
    const std::string text = "{\"actual\": 1}";
    const ScanError e = expectScanError([&] {
        Scanner sc(text);
        sc.expect('{');
        sc.expectKey("wanted");
    });
    // The key is consumed before the mismatch is detected; the offset
    // points after it, and the reason names both sides.
    EXPECT_EQ(e.offset, 9u);
    EXPECT_NE(e.reason.find("\"wanted\""), std::string::npos);
    EXPECT_NE(e.reason.find("\"actual\""), std::string::npos);
}

TEST(StrictJson, UnterminatedStringFails)
{
    const std::string text = "\"abc";
    const ScanError e = expectScanError([&] {
        Scanner sc(text);
        sc.parseString();
    });
    EXPECT_EQ(e.offset, text.size());
    EXPECT_NE(e.reason.find("unterminated string"), std::string::npos);
}

TEST(StrictJson, UnsupportedEscapeFails)
{
    const ScanError e = expectScanError([] {
        const std::string text = "\"a\\x\"";
        Scanner sc(text);
        sc.parseString();
    });
    EXPECT_NE(e.reason.find("unsupported escape"), std::string::npos);
}

TEST(StrictJson, StringEscapesRoundTrip)
{
    std::ostringstream os;
    writeString(os, "a\"b\\c\nd\te");
    const std::string text = os.str();
    Scanner sc(text);
    EXPECT_EQ(sc.parseString(), "a\"b\\c\nd\te");
}

TEST(StrictJson, U64OverflowIsAnErrorNotAWrap)
{
    // 2^64 and a 23-digit pile both overflow.
    for (const char* bad : {"18446744073709551616", //
                            "99999999999999999999999"}) {
        const std::string text = bad;
        const ScanError e = expectScanError([&] {
            Scanner sc(text);
            sc.parseU64();
        });
        EXPECT_NE(e.reason.find("overflow"), std::string::npos) << bad;
    }
    const std::string max = "18446744073709551615";
    Scanner sc(max);
    EXPECT_EQ(sc.parseU64(), 18446744073709551615ull);
}

TEST(StrictJson, I64RoundTripsTheExtremes)
{
    {
        const std::string text = "-9223372036854775808";
        Scanner sc(text);
        EXPECT_EQ(sc.parseI64(), INT64_MIN);
    }
    {
        const std::string text = "9223372036854775807";
        Scanner sc(text);
        EXPECT_EQ(sc.parseI64(), INT64_MAX);
    }
    const std::string over = "9223372036854775808";
    const ScanError e = expectScanError([&] {
        Scanner sc(over);
        sc.parseI64();
    });
    EXPECT_NE(e.reason.find("overflow"), std::string::npos);
}

TEST(StrictJson, MalformedNumberRejectsWholeToken)
{
    // strtod would silently accept the 1.2 prefix; the strict scanner
    // requires the whole token to convert and rewinds the offset to
    // the token start.
    const std::string text = "  1.2.3";
    const ScanError e = expectScanError([&] {
        Scanner sc(text);
        sc.parseDouble();
    });
    EXPECT_EQ(e.offset, 2u);
    EXPECT_NE(e.reason.find("1.2.3"), std::string::npos);
}

TEST(StrictJson, DoubleWriterRoundTrips)
{
    for (double v : {0.0, 1.0, 0.1, 2140.0, 6.25e-5, 1e300}) {
        std::ostringstream os;
        writeDouble(os, v);
        const std::string text = os.str();
        Scanner sc(text);
        EXPECT_EQ(sc.parseDouble(), v) << text;
    }
}

TEST(StrictJson, NullSentinelRoundTrips)
{
    const std::size_t sentinel = static_cast<std::size_t>(-1);
    std::ostringstream os;
    writeOrNull(os, sentinel, sentinel);
    os << ' ';
    writeOrNull(os, 42, sentinel);
    const std::string text = os.str();
    EXPECT_EQ(text, "null 42");
    Scanner sc(text);
    EXPECT_TRUE(sc.consumeNull());
    EXPECT_FALSE(sc.consumeNull());
    EXPECT_EQ(sc.parseU64(), 42u);
    sc.finish();
}

TEST(StrictJson, FinishRejectsTrailingContent)
{
    const std::string text = "7 x";
    const ScanError e = expectScanError([&] {
        Scanner sc(text);
        sc.parseU64();
        sc.finish();
    });
    EXPECT_EQ(e.offset, 2u);
    EXPECT_NE(e.reason.find("trailing content"), std::string::npos);
}

TEST(StrictJson, ConsumeWordDoesNotMoveOnMismatch)
{
    const std::string text = "nullx";
    Scanner sc(text);
    EXPECT_TRUE(sc.consumeWord("null"));
    EXPECT_FALSE(sc.consumeWord("null"));
    EXPECT_EQ(sc.offset(), 4u);
}

TEST(StrictJson, BoolParses)
{
    const std::string text = "true false";
    Scanner sc(text);
    EXPECT_TRUE(sc.parseBool());
    EXPECT_FALSE(sc.parseBool());
    const ScanError e = expectScanError([] {
        const std::string bad = "yes";
        Scanner sc2(bad);
        sc2.parseBool();
    });
    EXPECT_NE(e.reason.find("boolean"), std::string::npos);
}

} // namespace
} // namespace json
} // namespace core
} // namespace hetarch
