#include "obs/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace ditto::obs {

static_assert(sizeof(JsonDocument::Node) == 32,
              "a JsonDocument node is 32 bytes");

std::uint64_t
JsonValue::asU64() const
{
    const Kind k = kind();
    if (k == Kind::Unsigned)
        return doc_->nodes_[idx_].bits;
    if (k == Kind::Double) {
        const double d = asDouble();
        if (d > 0)
            return static_cast<std::uint64_t>(d);
    }
    return 0;
}

double
JsonValue::asDouble() const
{
    const Kind k = kind();
    if (k == Kind::Unsigned)
        return static_cast<double>(doc_->nodes_[idx_].bits);
    if (k == Kind::Double) {
        double d;
        std::memcpy(&d, &doc_->nodes_[idx_].bits, sizeof d);
        return d;
    }
    return 0.0;
}

/**
 * Recursive-descent parser writing a JsonDocument's preorder nodes.
 * Every error names what went wrong and the byte where it did.
 */
class JsonParser
{
  public:
    using Kind = JsonValue::Kind;
    using Node = JsonDocument::Node;

    explicit JsonParser(JsonDocument &doc)
        : text_(doc.text_), nodes_(doc.nodes_), side_(doc.side_)
    {
    }

    void
    parse()
    {
        if (text_.size() > std::numeric_limits<std::uint32_t>::max())
            failAt(0, "document of 4 GiB or more");
        // Trace exports run 11 to 16 bytes of text per value. One node
        // per 8 bytes avoids regrowth copies for them, and the pages of
        // capacity a document does not use are never touched.
        nodes_.reserve(text_.size() / 8 + 1);
        parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
    }

  private:
    std::string_view text_;
    std::vector<Node> &nodes_;
    std::string &side_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;

    [[noreturn]] void
    fail(const char *what) const
    {
        failAt(pos_, what);
    }

    [[noreturn]] static void
    failAt(std::size_t at, const char *what)
    {
        throw std::runtime_error("json: " + std::string(what) +
                                 " at byte " + std::to_string(at));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    /** Append a node and return its index; end is set by close(). */
    std::uint32_t
    open(Kind k)
    {
        Node n;
        n.kind = k;
        nodes_.push_back(n);
        return static_cast<std::uint32_t>(nodes_.size() - 1);
    }

    void
    close(std::uint32_t at)
    {
        nodes_[at].end = static_cast<std::uint32_t>(nodes_.size());
    }

    void
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{': parseContainer(Kind::Object, '}'); return;
          case '[': parseContainer(Kind::Array, ']'); return;
          case '"': {
            const std::uint32_t at = open(Kind::String);
            bool escaped = false;
            parseString(&nodes_[at].off, &nodes_[at].len, &escaped);
            if (escaped)
                nodes_[at].flags |= JsonDocument::kEscaped;
            close(at);
            return;
          }
          case 't': parseLiteral("true", Kind::Bool, 1); return;
          case 'f': parseLiteral("false", Kind::Bool, 0); return;
          case 'n': parseLiteral("null", Kind::Null, 0); return;
          default: parseNumber(); return;
        }
    }

    void
    parseLiteral(std::string_view lit, Kind k, std::uint64_t bits)
    {
        if (!consumeLiteral(lit))
            fail("bad literal");
        const std::uint32_t at = open(k);
        nodes_[at].bits = bits;
        close(at);
    }

    /** An object ('}') or array (']'); members carry their keys. */
    void
    parseContainer(Kind k, char closer)
    {
        if (++depth_ > kJsonMaxDepth) {
            static const std::string what =
                "nesting deeper than " + std::to_string(kJsonMaxDepth);
            fail(what.c_str());
        }
        const std::uint32_t at = open(k);
        ++pos_;  // the opener, already peeked
        skipWs();
        std::uint32_t count = 0;
        if (peek() == closer) {
            ++pos_;
        } else {
            while (true) {
                std::uint32_t keyOff = 0, keyLen = 0;
                bool keyEscaped = false;
                if (k == Kind::Object) {
                    skipWs();
                    parseString(&keyOff, &keyLen, &keyEscaped);
                    skipWs();
                    expect(':');
                }
                const std::size_t child = nodes_.size();
                parseValue();
                if (k == Kind::Object) {
                    nodes_[child].keyOff = keyOff;
                    nodes_[child].keyLen = keyLen;
                    if (keyEscaped)
                        nodes_[child].flags |= JsonDocument::kKeyEscaped;
                }
                ++count;
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(closer);
                break;
            }
        }
        nodes_[at].len = count;
        close(at);
        --depth_;
    }

    /**
     * A string literal. Without escapes it stays in the source text;
     * with one it is decoded into the document's side buffer.
     */
    void
    parseString(std::uint32_t *off, std::uint32_t *len, bool *escaped)
    {
        expect('"');
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '"' &&
               text_[pos_] != '\\')
            ++pos_;
        if (pos_ >= text_.size())
            fail("unterminated string");
        if (text_[pos_] == '"') {
            *off = static_cast<std::uint32_t>(start);
            *len = static_cast<std::uint32_t>(pos_ - start);
            *escaped = false;
            ++pos_;
            return;
        }
        const std::size_t sideStart = side_.size();
        side_.append(text_.data() + start, pos_ - start);
        decodeEscaped();
        *off = static_cast<std::uint32_t>(sideStart);
        *len = static_cast<std::uint32_t>(side_.size() - sideStart);
        *escaped = true;
    }

    /** The rest of a string from its first backslash, into side_. */
    void
    decodeEscaped()
    {
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return;
            if (c != '\\') {
                side_.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': side_.push_back('"'); break;
              case '\\': side_.push_back('\\'); break;
              case '/': side_.push_back('/'); break;
              case 'b': side_.push_back('\b'); break;
              case 'f': side_.push_back('\f'); break;
              case 'n': side_.push_back('\n'); break;
              case 'r': side_.push_back('\r'); break;
              case 't': side_.push_back('\t'); break;
              case 'u': decodeUnicode(pos_ - 2); break;
              default: fail("unknown escape");
            }
        }
    }

    unsigned
    hex4()
    {
        if (pos_ + 4 > text_.size())
            fail("bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                fail("bad \\u escape");
        }
        return code;
    }

    /**
     * A \uXXXX escape whose backslash is at `at`, as UTF-8. A UTF-16
     * surrogate pair (😀) combines into one 4-byte code
     * point; a surrogate without its partner is an error, since it
     * has no UTF-8 encoding.
     */
    void
    decodeUnicode(std::size_t at)
    {
        unsigned code = hex4();
        if (code >= 0xdc00 && code <= 0xdfff)
            failAt(at, "lone surrogate in \\u escape");
        if (code >= 0xd800 && code <= 0xdbff) {
            if (text_.substr(pos_, 2) != "\\u")
                failAt(at, "lone surrogate in \\u escape");
            pos_ += 2;
            const unsigned low = hex4();
            if (low < 0xdc00 || low > 0xdfff)
                failAt(at, "lone surrogate in \\u escape");
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        const auto put = [this](unsigned b) {
            side_.push_back(static_cast<char>(b));
        };
        if (code < 0x80) {
            put(code);
        } else if (code < 0x800) {
            put(0xc0 | (code >> 6));
            put(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            put(0xe0 | (code >> 12));
            put(0x80 | ((code >> 6) & 0x3f));
            put(0x80 | (code & 0x3f));
        } else {
            put(0xf0 | (code >> 18));
            put(0x80 | ((code >> 12) & 0x3f));
            put(0x80 | ((code >> 6) & 0x3f));
            put(0x80 | (code & 0x3f));
        }
    }

    std::size_t
    consumeDigits()
    {
        const std::size_t from = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        return pos_ - from;
    }

    void
    parseNumber()
    {
        // Strict RFC 8259 number grammar. Foreign Jaeger exports carry
        // float microsecond timestamps and ids above 2^53, so every
        // token must either convert exactly or fail loudly with the
        // byte offset — a truncated or garbage-suffixed number here
        // silently corrupts the recovered trace downstream.
        const std::size_t start = pos_;
        bool negative = false;
        bool integral = true;
        if (peek() == '-') {
            negative = true;
            ++pos_;
        }
        const std::size_t intDigits = consumeDigits();
        if (intDigits == 0)
            failAt(start, "malformed number");
        if (intDigits > 1 && text_[start + (negative ? 1u : 0u)] == '0')
            failAt(start, "number has leading zero");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (consumeDigits() == 0)
                failAt(start, "number has empty fraction");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (consumeDigits() == 0)
                failAt(start, "number has empty exponent");
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        const std::uint32_t at =
            open(integral && !negative ? Kind::Unsigned : Kind::Double);
        Node &n = nodes_[at];
        n.off = static_cast<std::uint32_t>(start);
        n.len = static_cast<std::uint32_t>(pos_ - start);
        if (n.kind == Kind::Unsigned) {
            if (std::from_chars(first, last, n.bits).ec != std::errc{})
                failAt(start, "integer overflows uint64");
        } else {
            // from_chars rounds correctly, like strtod; past the
            // double range it reports out-of-range, and strtod then
            // decides between an underflow (kept) and an overflow.
            double d = 0.0;
            if (std::from_chars(first, last, d).ec != std::errc{}) {
                const std::string tok(first, last);
                errno = 0;
                d = std::strtod(tok.c_str(), nullptr);
                if (errno == ERANGE && (d >= HUGE_VAL || d <= -HUGE_VAL))
                    failAt(start, "number overflows double");
            }
            std::memcpy(&n.bits, &d, sizeof d);
        }
        close(at);
    }
};

JsonDocument
parseJson(const std::string &text)
{
    JsonDocument doc;
    doc.text_ = text;
    JsonParser(doc).parse();
    return doc;
}

JsonDocument
parseJson(std::string &&text)
{
    JsonDocument doc;
    doc.owned_ = std::make_unique<const std::string>(std::move(text));
    doc.text_ = *doc.owned_;
    JsonParser(doc).parse();
    return doc;
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

} // namespace ditto::obs
