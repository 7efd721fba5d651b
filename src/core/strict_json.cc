#include "core/strict_json.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace hetarch {
namespace core {
namespace json {

void
writeString(std::ostream& os, const std::string& s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            os << c;
        }
    }
    os << '"';
}

void
writeDouble(std::ostream& os, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

void
writeOrNull(std::ostream& os, std::size_t v, std::size_t sentinel)
{
    if (v == sentinel)
        os << "null";
    else
        os << v;
}

void
Scanner::fail(const std::string& why) const
{
    throw ScanError{pos, why};
}

void
Scanner::skipWs()
{
    while (pos < src.size() &&
           std::isspace(static_cast<unsigned char>(src[pos])))
        ++pos;
}

char
Scanner::peek()
{
    skipWs();
    if (pos >= src.size())
        fail("unexpected end of input");
    return src[pos];
}

void
Scanner::expect(char c)
{
    if (peek() != c)
        fail(std::string("expected '") + c + "', found '" + src[pos] +
             "'");
    ++pos;
}

bool
Scanner::consume(char c)
{
    skipWs();
    if (pos >= src.size() || src[pos] != c)
        return false;
    ++pos;
    return true;
}

bool
Scanner::consumeWord(const char* word)
{
    skipWs();
    const std::size_t len = std::string(word).size();
    if (src.compare(pos, len, word) != 0)
        return false;
    pos += len;
    return true;
}

void
Scanner::expectKey(const char* key)
{
    const std::string name = parseString();
    if (name != key)
        fail("expected key \"" + std::string(key) + "\", found \"" +
             name + "\"");
    expect(':');
}

std::string
Scanner::parseString()
{
    expect('"');
    std::string out;
    while (pos < src.size() && src[pos] != '"') {
        char c = src[pos++];
        if (c == '\\') {
            if (pos >= src.size())
                fail("unterminated escape");
            const char esc = src[pos++];
            switch (esc) {
              case '"':
                c = '"';
                break;
              case '\\':
                c = '\\';
                break;
              case 'n':
                c = '\n';
                break;
              case 't':
                c = '\t';
                break;
              default:
                fail("unsupported escape sequence");
            }
        }
        out += c;
    }
    if (pos >= src.size())
        fail("unterminated string");
    ++pos; // closing quote
    return out;
}

std::uint64_t
Scanner::parseU64()
{
    skipWs();
    const std::size_t begin = pos;
    while (pos < src.size() &&
           std::isdigit(static_cast<unsigned char>(src[pos])))
        ++pos;
    if (pos == begin)
        fail("expected an unsigned integer");
    if (pos - begin > 20)
        fail("integer overflow");
    errno = 0;
    const std::uint64_t v = std::strtoull(
        src.substr(begin, pos - begin).c_str(), nullptr, 10);
    if (errno == ERANGE)
        fail("integer overflow");
    return v;
}

std::int64_t
Scanner::parseI64()
{
    skipWs();
    const bool negative = consume('-');
    const std::uint64_t magnitude = parseU64();
    const std::uint64_t limit =
        negative ? (1ull << 63) : (1ull << 63) - 1;
    if (magnitude > limit)
        fail("integer overflow");
    // Negate in unsigned arithmetic so INT64_MIN round-trips.
    return static_cast<std::int64_t>(negative ? 0 - magnitude
                                              : magnitude);
}

std::size_t
Scanner::numberTokenEnd() const
{
    std::size_t end = pos;
    while (end < src.size() &&
           (std::isalnum(static_cast<unsigned char>(src[end])) ||
            src[end] == '.' || src[end] == '+' || src[end] == '-'))
        ++end;
    return end;
}

double
Scanner::parseDouble()
{
    skipWs();
    const std::size_t begin = pos;
    pos = numberTokenEnd();
    if (pos == begin)
        fail("expected a number");
    const std::string token = src.substr(begin, pos - begin);
    double value = 0.0;
    const char* end = token.c_str() + token.size();
    const auto res = std::from_chars(token.c_str(), end, value);
    if (res.ec != std::errc{} || res.ptr != end) {
        pos = begin;
        fail("malformed number '" + token + "'");
    }
    return value;
}

bool
Scanner::parseBool()
{
    if (consumeWord("true"))
        return true;
    if (consumeWord("false"))
        return false;
    fail("expected a boolean");
}

bool
Scanner::consumeNull()
{
    return consumeWord("null");
}

void
Scanner::finish()
{
    skipWs();
    if (pos != src.size())
        fail("trailing content after document");
}

} // namespace json
} // namespace core
} // namespace hetarch
