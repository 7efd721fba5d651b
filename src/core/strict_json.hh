/**
 * @file
 * Shared writer and scanner for the strict hetarch-*-v1 JSON dialect.
 *
 * Every stable machine interface in the repo (hetarch-lint-v1,
 * hetarch-sched-v1, hetarch-flow-v1, hetarch-job-v1, hetarch-obs-v1)
 * uses the same dialect: fixed field order, sorted key names, no
 * unknown fields, no duplicate keys, ASCII strings with a four-escape
 * repertoire, and numbers that are either u64 counts or doubles.  The
 * writers below emit it for all five.
 *
 * Only the hetarch-job-v1 wire protocol is read back in C++: the
 * reports and metrics snapshots are written only and pinned by golden
 * tests.  The wire parser subclasses Scanner (members are protected
 * for its number-shape classification) and converts ScanError into a
 * returned diagnostic, so a malformed line can't kill the daemon.
 * Every deviation is an error with a byte offset.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace hetarch {
namespace core {
namespace json {

/** Emit a JSON string literal (ASCII, four-escape repertoire). */
void writeString(std::ostream& os, const std::string& s);

/** Round-trip decimal form of a double (17 significant digits). */
void writeDouble(std::ostream& os, double v);

/** Unsigned fields whose sentinel renders as the literal null. */
void writeOrNull(std::ostream& os, std::size_t v, std::size_t sentinel);

/**
 * Scan failure: @p offset is the byte position in the source text at
 * which the deviation was detected, @p reason a human-readable cause.
 */
struct ScanError
{
    std::size_t offset;
    std::string reason;
};

class Scanner
{
  public:
    explicit Scanner(const std::string& text) : src(text) {}

    /** Throw ScanError at the current offset. */
    [[noreturn]] void fail(const std::string& why) const;

    void skipWs();

    /** Next significant character without consuming it. */
    char peek();

    void expect(char c);

    /** Consume @p c if it is next; false (and no movement) otherwise. */
    bool consume(char c);

    /** Consume the literal @p word if it is next. */
    bool consumeWord(const char* word);

    /** A quoted key named exactly @p key followed by ':'. */
    void expectKey(const char* key);

    std::string parseString();

    /** Digits only; overflow is an error, not a wrap. */
    std::uint64_t parseU64();

    std::int64_t parseI64();

    /**
     * A number token parsed as a double.  The whole token must
     * convert: "1.2.3" is an error, not 1.2.
     */
    double parseDouble();

    bool parseBool();

    /** Consume the literal null if it is next. */
    bool consumeNull();

    /** Error unless the whole source has been consumed. */
    void finish();

    /** Current byte offset (for dialect extensions). */
    std::size_t offset() const { return pos; }

  protected:
    /** End of the number token (alphanumerics, '.', '+', '-') at pos. */
    std::size_t numberTokenEnd() const;

    const std::string& src;
    std::size_t pos = 0;
};

} // namespace json
} // namespace core
} // namespace hetarch
