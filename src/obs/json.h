/**
 * @file
 * Minimal JSON document, parser, and writer.
 *
 * The observability layer needs to read back its own Jaeger-JSON
 * trace exports, and foreign ones, without pulling in a third-party
 * dependency. This is a strict RFC 8259 parser into a flat document:
 * one preorder array of fixed-size nodes that point into the source
 * text, so a value costs one node and no allocation of its own.
 * Objects keep member order, integers that fit in uint64 parse
 * losslessly, and the writer escapes strings per RFC 8259.
 */

#ifndef DITTO_OBS_JSON_H_
#define DITTO_OBS_JSON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ditto::obs {

/** Deepest array/object nesting parseJson accepts. */
inline constexpr unsigned kJsonMaxDepth = 512;

class JsonDocument;

/**
 * Read handle on one value of a JsonDocument: the document and a node
 * index. Cheap to copy; valid while its document lives and is not
 * moved. A default-constructed handle is *absent*: it tests false and
 * answers every query like a null (no members, no items, "" and 0).
 */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Unsigned,  //!< non-negative integer literal (lossless u64)
        Double,    //!< negative, fractional, or exponent literal
        String,
        Array,
        Object,
    };

    /** The children of an array or object, in document order. */
    class Range
    {
      public:
        class iterator
        {
          public:
            JsonValue operator*() const { return {doc_, idx_}; }
            iterator &operator++();
            bool operator==(const iterator &o) const
            {
                return idx_ == o.idx_;
            }

          private:
            friend class Range;
            iterator(const JsonDocument *doc, std::uint32_t idx)
                : doc_(doc), idx_(idx)
            {
            }
            const JsonDocument *doc_;
            std::uint32_t idx_;
        };

        iterator begin() const { return {doc_, first_}; }
        iterator end() const { return {doc_, last_}; }
        bool empty() const { return first_ == last_; }

      private:
        friend class JsonValue;
        Range(const JsonDocument *doc, std::uint32_t first,
              std::uint32_t last)
            : doc_(doc), first_(first), last_(last)
        {
        }
        const JsonDocument *doc_;
        std::uint32_t first_;
        std::uint32_t last_;
    };

    JsonValue() = default;

    /** False for an absent value (a failed find()). */
    explicit operator bool() const { return doc_ != nullptr; }

    Kind kind() const;
    bool isObject() const { return kind() == Kind::Object; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isString() const { return kind() == Kind::String; }

    bool asBool() const;
    /** Numeric value as u64 (Unsigned exactly, Double truncated). */
    std::uint64_t asU64() const;
    double asDouble() const;
    /**
     * String content, unescaped; for a number, its raw literal (as
     * literal()); "" otherwise.
     */
    std::string_view asString() const;
    /**
     * A number's raw source literal (e.g. "123.456"), so callers can
     * reconvert units losslessly instead of going through a rounded
     * double; "" for any other kind.
     */
    std::string_view literal() const;
    /** This value's key when it is an object member, else "". */
    std::string_view key() const;

    /** Number of items or members; 0 for scalars. */
    std::size_t size() const;
    /** Array elements; empty unless this is an array. */
    Range items() const;
    /** Object members (each with key()); empty unless an object. */
    Range members() const;
    /** First member named `key`; absent when none or not an object. */
    JsonValue find(std::string_view key) const;

  private:
    friend class JsonDocument;
    JsonValue(const JsonDocument *doc, std::uint32_t idx)
        : doc_(doc), idx_(idx)
    {
    }
    Range children(Kind k) const;

    const JsonDocument *doc_ = nullptr;
    std::uint32_t idx_ = 0;
};

/**
 * A parsed JSON text: every value is one 32-byte node in a preorder
 * vector, and a container's node records the index one past its
 * subtree, so siblings are reached without pointers. String and
 * number nodes point into the source text; only a string that holds
 * an escape is decoded, into one side buffer the document owns.
 * Offsets are 32-bit, so a text must be under 4 GiB.
 *
 * Lifetime: parsing an lvalue string borrows it (its owner must
 * outlive the document and leave it unchanged); parsing an rvalue
 * string moves it into the document. Moving a document invalidates
 * its JsonValue handles.
 */
class JsonDocument
{
  public:
    /** One value. The layout is fixed at 32 bytes. */
    struct Node
    {
        /** Unsigned: the value; Double: its bits; Bool: 0 or 1. */
        std::uint64_t bits = 0;
        /** Index one past this value's subtree. */
        std::uint32_t end = 0;
        /**
         * String and number text: offset into the source, or into
         * the side buffer when kEscaped is set. Unused otherwise.
         */
        std::uint32_t off = 0;
        /** Text length; for an array or object, its child count. */
        std::uint32_t len = 0;
        /** Member key text (kKeyEscaped: in the side buffer). */
        std::uint32_t keyOff = 0;
        std::uint32_t keyLen = 0;
        JsonValue::Kind kind = JsonValue::Kind::Null;
        std::uint8_t flags = 0;
    };
    static constexpr std::uint8_t kEscaped = 1;
    static constexpr std::uint8_t kKeyEscaped = 2;

    /** The top-level value. */
    JsonValue root() const & { return {this, 0}; }
    JsonValue root() const && = delete;  // would dangle

    const std::vector<Node> &nodes() const { return nodes_; }

  private:
    friend class JsonValue;
    friend class JsonParser;
    friend JsonDocument parseJson(const std::string &text);
    friend JsonDocument parseJson(std::string &&text);
    JsonDocument() = default;

    std::string_view
    text(std::uint32_t off, std::uint32_t len, bool escaped) const
    {
        return {(escaped ? side_.data() : text_.data()) + off, len};
    }

    std::unique_ptr<const std::string> owned_;  //!< rvalue source
    std::string_view text_;
    std::string side_;  //!< decoded escaped strings and keys
    std::vector<Node> nodes_;
};

/**
 * Parse a complete JSON document. Throws std::runtime_error
 * "json: <what> at byte N" on malformed input, trailing garbage,
 * nesting deeper than kJsonMaxDepth, or a text of 4 GiB or more.
 */
JsonDocument parseJson(const std::string &text);
JsonDocument parseJson(std::string &&text);

/** Append `s` to `out` as a quoted, escaped JSON string literal. */
void appendJsonString(std::string &out, const std::string &s);

// ---- inline accessors -----------------------------------------------

inline JsonValue::Range::iterator &
JsonValue::Range::iterator::operator++()
{
    idx_ = doc_->nodes()[idx_].end;
    return *this;
}

inline JsonValue::Kind
JsonValue::kind() const
{
    return doc_ ? doc_->nodes_[idx_].kind : Kind::Null;
}

inline bool
JsonValue::asBool() const
{
    return kind() == Kind::Bool && doc_->nodes_[idx_].bits != 0;
}

inline std::string_view
JsonValue::asString() const
{
    const Kind k = kind();
    if (k != Kind::String && k != Kind::Unsigned && k != Kind::Double)
        return {};
    const JsonDocument::Node &n = doc_->nodes_[idx_];
    return doc_->text(n.off, n.len, n.flags & JsonDocument::kEscaped);
}

inline std::string_view
JsonValue::literal() const
{
    return isString() ? std::string_view{} : asString();
}

inline std::string_view
JsonValue::key() const
{
    if (!doc_)
        return {};
    const JsonDocument::Node &n = doc_->nodes_[idx_];
    return doc_->text(n.keyOff, n.keyLen,
                      n.flags & JsonDocument::kKeyEscaped);
}

inline std::size_t
JsonValue::size() const
{
    return isArray() || isObject() ? doc_->nodes_[idx_].len : 0;
}

inline JsonValue::Range
JsonValue::children(Kind k) const
{
    if (kind() != k)
        return {nullptr, 0, 0};
    return {doc_, idx_ + 1, doc_->nodes_[idx_].end};
}

inline JsonValue::Range
JsonValue::items() const
{
    return children(Kind::Array);
}

inline JsonValue::Range
JsonValue::members() const
{
    return children(Kind::Object);
}

inline JsonValue
JsonValue::find(std::string_view key) const
{
    for (JsonValue m : members())
        if (m.key() == key)
            return m;
    return {};
}

} // namespace ditto::obs

#endif // DITTO_OBS_JSON_H_
