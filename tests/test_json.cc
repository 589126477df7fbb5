/**
 * @file
 * Tests for the JSON parser (src/obs/json.*): values, escapes,
 * errors, the nesting limit, and surrogate pairs; plus a differential
 * against `ref::`, a frozen copy of the tree-building parser that the
 * flat JsonDocument replaced. Both must accept and reject the same
 * texts with the same error, and build the same tree -- kinds, member
 * order, strings, raw number literals, and u64/double bits -- on the
 * foreign fixture, a faulted native export, the malformed-Jaeger
 * corpus, and the strings below. `ref::` stays frozen: texts whose
 * outcome changed on purpose (nesting past the limit, surrogate
 * escapes) are tested on their own and kept out of the differential.
 *
 * The ctest alias JsonUnderSanitizers.Import runs these tests and the
 * CloneImportErrors corpus under the `sanitize` label.
 */

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "app/deployment.h"
#include "clone/foreign_fixture.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "jaeger_corpus.h"
#include "obs/jaeger.h"
#include "obs/json.h"
#include "workload/loadgen.h"

namespace {

using namespace ditto;

// ---------------------------------------------------------------------------
// Frozen reference: the recursive tree parser as it was before the flat
// document. One heap tree node per value.
// ---------------------------------------------------------------------------

namespace ref {

struct JsonValue
{
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Unsigned,
        Double,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::uint64_t unsignedValue = 0;
    double doubleValue = 0.0;
    std::string str;  //!< string content, or a number's raw literal
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    std::uint64_t
    asU64() const
    {
        if (kind == Kind::Unsigned)
            return unsignedValue;
        if (kind == Kind::Double && doubleValue > 0)
            return static_cast<std::uint64_t>(doubleValue);
        return 0;
    }

    double
    asDouble() const
    {
        if (kind == Kind::Unsigned)
            return static_cast<double>(unsignedValue);
        if (kind == Kind::Double)
            return doubleValue;
        return 0.0;
    }
};

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;

    [[noreturn]] void
    fail(const char *what) const
    {
        failAt(pos_, what);
    }

    [[noreturn]] void
    failAt(std::size_t at, const char *what) const
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
    consumeLiteral(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.str = parseString();
            return v;
          }
          case 't': {
            if (!consumeLiteral("true"))
                fail("bad literal");
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
          }
          case 'f': {
            if (!consumeLiteral("false"))
                fail("bad literal");
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = false;
            return v;
          }
          case 'n': {
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
          }
          default: return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.members.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
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
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    std::size_t
    consumeDigits()
    {
        std::size_t n = 0;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
            ++pos_;
            ++n;
        }
        return n;
    }

    JsonValue
    parseNumber()
    {
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
        const std::string tok = text_.substr(start, pos_ - start);
        JsonValue v;
        v.str = tok;
        char *end = nullptr;
        if (integral && !negative) {
            v.kind = JsonValue::Kind::Unsigned;
            errno = 0;
            v.unsignedValue = std::strtoull(tok.c_str(), &end, 10);
            if (errno == ERANGE)
                failAt(start, "integer overflows uint64");
            if (end != tok.c_str() + tok.size())
                failAt(start, "malformed number");
        } else {
            v.kind = JsonValue::Kind::Double;
            errno = 0;
            v.doubleValue = std::strtod(tok.c_str(), &end);
            if (errno == ERANGE &&
                (v.doubleValue >= HUGE_VAL || v.doubleValue <= -HUGE_VAL))
                failAt(start, "number overflows double");
            if (end != tok.c_str() + tok.size())
                failAt(start, "malformed number");
        }
        return v;
    }
};

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace ref

// ---------------------------------------------------------------------------
// Differential helpers
// ---------------------------------------------------------------------------

std::uint64_t
bitsOf(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

/** The first difference between the two trees, or "" when none. */
std::string
treeDiff(const ref::JsonValue &r, obs::JsonValue v,
         const std::string &path)
{
    if (static_cast<int>(r.kind) != static_cast<int>(v.kind()))
        return path + ": kind";
    if (r.asU64() != v.asU64() ||
        bitsOf(r.asDouble()) != bitsOf(v.asDouble()))
        return path + ": numeric value";
    switch (r.kind) {
      case ref::JsonValue::Kind::Bool:
        return r.boolean == v.asBool() ? "" : path + ": bool";
      case ref::JsonValue::Kind::Unsigned:
      case ref::JsonValue::Kind::Double:
        return r.str == v.literal() && r.str == v.asString()
            ? ""
            : path + ": literal";
      case ref::JsonValue::Kind::String:
        return r.str == v.asString() ? "" : path + ": string";
      case ref::JsonValue::Kind::Array: {
        if (r.items.size() != v.size())
            return path + ": item count";
        std::size_t i = 0;
        for (obs::JsonValue item : v.items()) {
            const std::string d = treeDiff(
                r.items[i], item, path + "[" + std::to_string(i) + "]");
            if (!d.empty())
                return d;
            ++i;
        }
        return "";
      }
      case ref::JsonValue::Kind::Object: {
        if (r.members.size() != v.size())
            return path + ": member count";
        std::size_t i = 0;
        for (obs::JsonValue m : v.members()) {
            const auto &[key, value] = r.members[i++];
            if (key != m.key())
                return path + ": key \"" + key + "\"";
            const std::string d = treeDiff(value, m, path + "." + key);
            if (!d.empty())
                return d;
        }
        return "";
      }
      case ref::JsonValue::Kind::Null: return "";
    }
    return path + ": unknown kind";
}

/**
 * Parse `text` with both parsers: the same accept or reject outcome,
 * the same error text, and the same tree.
 */
void
expectSameParse(const std::string &text, const std::string &label)
{
    std::optional<ref::JsonValue> want;
    std::string wantError;
    try {
        want = ref::parseJson(text);
    } catch (const std::runtime_error &e) {
        wantError = e.what();
    }
    try {
        const obs::JsonDocument doc = obs::parseJson(text);
        ASSERT_TRUE(want) << label << ": only the reference rejects ("
                          << wantError << ")";
        EXPECT_EQ(treeDiff(*want, doc.root(), "$"), "") << label;
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(e.what(), wantError) << label;
    }
}

/** The strings of the Json tests, plus one text per error path. */
const std::vector<std::string> kJsonStrings = {
    R"({"a": 1, "b": -2.5, "c": "x", "d": [true, false, null],)"
    R"( "e": {"nested": 18446744073709551615}})",
    "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}",
    "{", "[1,]", "{\"a\":1} trailing", "nul", "", "   ", "[]", "{}",
    " [ 1 , { } , [ ] ] ", "{\"a\" 1}", "{1:2}", "[1 2]", "{\"a\":1,}",
    "tru", "falsy", "x", "-", "-x", "01", "-01", "1.", "1.e5", "1e",
    "1e+", "0.5", "-0", "-0.0", "1E-3", "123.456", "1e308", "1e309",
    "-1e309", "1e-400", "4.9e-324", "2.2250738585072011e-308",
    "18446744073709551615", "18446744073709551616",
    "99999999999999999999999", "9007199254740993", "0.1", "1.5e300",
    "\"abc", "\"a\\", "\"\\x\"", "\"\\u12\"", "\"\\u12g4\"",
    "\"\\u00e9\\u4e2d\\u0000\"", "\"\\/\\b\\f\\r\"", "\"raw\x01tab\t\"",
    "{\"dup\":1,\"dup\":2}", "{\"esc\\u0041key\":true}",
};

// ---------------------------------------------------------------------------
// A small faulted deployment whose export carries outcome logs.
// ---------------------------------------------------------------------------

hw::CodeBlock
block(const std::string &label, std::uint64_t seed)
{
    hw::BlockSpec bs;
    bs.label = label;
    bs.instCount = 64;
    bs.seed = seed;
    return hw::buildBlock(bs);
}

app::ServiceSpec
service(const std::string &name, std::uint64_t seed,
        const std::string &downstream)
{
    app::ServiceSpec spec;
    spec.name = name;
    spec.threads.workers = 2;
    spec.blocks.push_back(block(name + ".h", seed));
    app::EndpointSpec ep;
    ep.name = "get";
    ep.handler.ops = {app::opCompute(0, 4)};
    if (!downstream.empty()) {
        spec.downstreams = {downstream};
        ep.handler.ops.push_back(app::opRpc(0, 0, 128, 256));
        spec.resilience.rpcDeadline = sim::microseconds(800);
        spec.resilience.retry.maxAttempts = 2;
        spec.resilience.retry.baseBackoff = sim::microseconds(100);
        spec.resilience.retry.jitter = 0.0;
    }
    spec.endpoints.push_back(ep);
    return spec;
}

/** A front -> back run with a lossy link between their machines. */
std::string
faultedNativeExport()
{
    app::Deployment dep(7);
    os::Machine &web = dep.addMachine("web", hw::platformA());
    os::Machine &db = dep.addMachine("db", hw::platformA());
    dep.deploy(service("back", 3, ""), db);
    dep.deploy(service("front", 5, "back"), web);
    dep.wireAll();
    fault::FaultInjector injector(dep);
    fault::FaultPlan plan;
    plan.linkDrop("web", "db", sim::milliseconds(10),
                  sim::milliseconds(15), 0.3);
    injector.install(plan);
    workload::LoadSpec load;
    load.qps = 2000;
    load.connections = 4;
    load.timeout = sim::milliseconds(5);
    workload::LoadGen gen(dep, *dep.find("front"), load, 11);
    gen.start();
    dep.runFor(sim::milliseconds(40));
    return obs::exportJaegerJson(dep.tracer());
}

/** FNV-1a over a rendering of everything one import returns. */
std::uint64_t
importDigest(const std::string &json, bool lenient)
{
    std::string s;
    const auto add = [&s](const auto &v) {
        s += std::to_string(v);
        s += ',';
    };
    try {
        obs::ImportOptions opts;
        opts.lenient = lenient;
        obs::ImportReport rep;
        const trace::Tracer t = obs::importJaegerJson(json, opts, &rep);
        add(bitsOf(t.sampleRate()));
        for (const trace::Span &x : t.spans()) {
            add(x.traceId), add(x.spanId), add(x.parentSpanId);
            s += x.service + ',';
            add(x.endpoint), add(x.start), add(x.end);
        }
        for (const trace::RpcEdge &x : t.edges()) {
            add(x.traceId), add(x.parentSpanId);
            s += x.caller + ',' + x.callee + ',';
            add(x.endpoint), add(x.requestBytes), add(x.responseBytes);
            add(x.deadlineNs);
        }
        for (const trace::OutcomeEvent &x : t.outcomes()) {
            add(x.traceId);
            s += x.service + ',';
            add(x.target), add(x.endpoint);
            add(static_cast<int>(x.kind)), add(x.attempts), add(x.time);
            s += x.cause + ',';
        }
        for (std::uint64_t c :
             {rep.traces, rep.nativeSpans, rep.foreignSpans,
              rep.clientSpans, rep.derivedEdges, rep.internalSpans,
              rep.duplicateSpans, rep.missingParents,
              rep.zeroDurationSpans, rep.negativeDurationSpans,
              rep.unknownProcessSpans, rep.calleelessClientSpans})
            add(c);
        for (const std::string &w : rep.warnings)
            s += w + ';';
        for (const auto &[svc, names] : rep.endpointNames) {
            s += svc + ':';
            for (const std::string &n : names)
                s += n + ',';
        }
    } catch (const std::runtime_error &e) {
        s = std::string("error: ") + e.what();
    }
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

// ---------------------------------------------------------------------------
// Parser behaviour
// ---------------------------------------------------------------------------

std::string
parseError(const std::string &text)
{
    try {
        obs::parseJson(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "accepted";
}

TEST(Json, ParsesScalarsObjectsAndArrays)
{
    const auto doc = obs::parseJson(
        R"({"a": 1, "b": -2.5, "c": "x", "d": [true, false, null],)"
        R"( "e": {"nested": 18446744073709551615}})");
    const obs::JsonValue v = doc.root();
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a").asU64(), 1u);
    EXPECT_DOUBLE_EQ(v.find("b").asDouble(), -2.5);
    EXPECT_EQ(v.find("c").asString(), "x");
    ASSERT_TRUE(v.find("d").isArray());
    EXPECT_EQ(v.find("d").size(), 3u);
    EXPECT_TRUE((*v.find("d").items().begin()).asBool());
    // u64 values parse losslessly (no double round trip).
    EXPECT_EQ(v.find("e").find("nested").asU64(), UINT64_MAX);
}

TEST(Json, StringEscapingRoundTrips)
{
    const std::string nasty = "a\"b\\c\nd\te\x01f";
    std::string doc = "{\"k\":";
    obs::appendJsonString(doc, nasty);
    doc += "}";
    const auto v = obs::parseJson(doc);
    EXPECT_EQ(v.root().find("k").asString(), nasty);
}

TEST(Json, ThrowsOnMalformedInput)
{
    EXPECT_THROW(obs::parseJson("{"), std::runtime_error);
    EXPECT_THROW(obs::parseJson("[1,]"), std::runtime_error);
    EXPECT_THROW(obs::parseJson("{\"a\":1} trailing"),
                 std::runtime_error);
    EXPECT_THROW(obs::parseJson("nul"), std::runtime_error);
}

TEST(Json, NestingDeeperThanLimitThrows)
{
    // A recursive parser without a limit overflows its stack on
    // these (a hostile trace could crash the importer).
    EXPECT_EQ(parseError(std::string(1000000, '[')),
              "json: nesting deeper than 512 at byte 512");
    std::string objects;
    for (int i = 0; i < 1000000; ++i)
        objects += "{\"a\":";
    EXPECT_EQ(parseError(objects),
              "json: nesting deeper than 512 at byte 2560");
    // The limit itself is fine.
    EXPECT_EQ(parseError(std::string(obs::kJsonMaxDepth, '[') +
                         std::string(obs::kJsonMaxDepth, ']')),
              "accepted");
}

TEST(Json, SurrogatePairDecodesToUtf8)
{
    const auto doc = obs::parseJson("[\"\\ud83d\\ude00\", \"\\uD83D\\uDE00!\"]");
    std::vector<std::string> got;
    for (obs::JsonValue s : doc.root().items())
        got.emplace_back(s.asString());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "\xf0\x9f\x98\x80");  // U+1F600, not CESU-8
    EXPECT_EQ(got[1], "\xf0\x9f\x98\x80!");
}

TEST(Json, LoneSurrogateThrows)
{
    EXPECT_EQ(parseError("\"\\ud83d\""),
              "json: lone surrogate in \\u escape at byte 1");
    EXPECT_EQ(parseError("\"\\ud83dx\""),
              "json: lone surrogate in \\u escape at byte 1");
    EXPECT_EQ(parseError("\"ab\\ude00\""),
              "json: lone surrogate in \\u escape at byte 3");
    EXPECT_EQ(parseError("\"\\ud83d\\u0041\""),
              "json: lone surrogate in \\u escape at byte 1");
    EXPECT_EQ(parseError("\"\\ud83d\\uzzzz\""),
              "json: bad \\u escape at byte 10");
}

TEST(Json, EscapedKeysAndStringsDecode)
{
    const auto doc =
        obs::parseJson("{\"a\\u0042\": \"x\\ty\", \"plain\": \"z\"}");
    const obs::JsonValue v = doc.root();
    EXPECT_EQ(v.find("aB").asString(), "x\ty");
    EXPECT_EQ(v.find("plain").asString(), "z");
    EXPECT_FALSE(v.find("a\\u0042"));
}

TEST(Json, RvalueTextIsOwnedByTheDocument)
{
    // Parsing a temporary moves it into the document, so a short
    // (inline-buffer) string cannot dangle.
    const auto doc = obs::parseJson(std::string("[\"ab\", 12]"));
    const obs::JsonValue v = doc.root();
    EXPECT_EQ((*v.items().begin()).asString(), "ab");
    EXPECT_EQ(v.size(), 2u);
}

TEST(Json, AbsentValuesReadAsNull)
{
    const auto doc = obs::parseJson("{\"a\": 5}");
    const obs::JsonValue missing = doc.root().find("b");
    EXPECT_FALSE(missing);
    EXPECT_EQ(missing.kind(), obs::JsonValue::Kind::Null);
    EXPECT_EQ(missing.asU64(), 0u);
    EXPECT_EQ(missing.asString(), "");
    EXPECT_TRUE(missing.items().empty());
    EXPECT_FALSE(missing.find("a"));
    EXPECT_EQ(doc.root().find("a").literal(), "5");
    EXPECT_EQ(doc.root().find("a").key(), "a");
}

// ---------------------------------------------------------------------------
// Differential against the frozen reference
// ---------------------------------------------------------------------------

TEST(JsonDifferential, JsonTestStrings)
{
    for (const std::string &text : kJsonStrings)
        expectSameParse(text, "\"" + text + "\"");
}

TEST(JsonDifferential, ForeignFixture)
{
    expectSameParse(clone::exampleForeignTraceJson(100), "fixture 100");
    expectSameParse(clone::exampleForeignTraceJson(5000),
                    "fixture 5000");
}

TEST(JsonDifferential, FaultedNativeExport)
{
    const std::string json = faultedNativeExport();
    // The export must carry outcome logs for this to cover them.
    ASSERT_NE(json.find("\"fields\""), std::string::npos);
    expectSameParse(json, "faulted export");
}

TEST(JsonDifferential, MalformedJaegerCorpus)
{
    for (const auto &[name, json] : jaeger_corpus::all())
        expectSameParse(json, name);
}

TEST(JsonDifferential, ImportMatchesPinnedDigests)
{
    // importDigest of each Tracer and ImportReport (or error) as the
    // tree parser's importer returned them, recorded before the flat
    // document replaced it. The ns-tag-* documents are left out: their
    // non-digit decimal tags imported silently then and fail now.
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"fixture 100", 0xf4417731bb02c9d3ull},
        {"fixture 5000", 0x9da37c44ebbc1e89ull},
        {"duplicate-span-id strict", 0x7c90dc0df26e1f24ull},
        {"duplicate-span-id lenient", 0x85e3d6fcbfbe304dull},
        {"missing-parent strict", 0xc4a9f2298af3e0c1ull},
        {"missing-parent lenient", 0x8df534499bdb8f83ull},
        {"zero-duration strict", 0xce09fce80c0c4105ull},
        {"zero-duration lenient", 0x100b0bacd6487c03ull},
        {"negative-duration strict", 0x7c86c6cbce2ba456ull},
        {"negative-duration lenient", 0x216593fcbb3c64b2ull},
        {"negative-start strict", 0x16a58c6426914a4eull},
        {"negative-start lenient", 0xe0573afcd6f80801ull},
        {"unknown-process-id strict", 0xb7285ff606edc5f4ull},
        {"unknown-process-id lenient", 0x3f78a79f734da5a2ull},
        {"calleeless-client-span strict", 0x680712b84fa44254ull},
        {"calleeless-client-span lenient", 0x4163e8084766159bull},
        {"bad-hex-id strict", 0x5f60984b9f29083bull},
        {"bad-hex-id lenient", 0x5f60984b9f29083bull},
        {"timestamp-overflow strict", 0xb4c4144c923d6a79ull},
        {"timestamp-overflow lenient", 0xb4c4144c923d6a79ull},
        {"number-two-points strict", 0x2ea5efe928b330f7ull},
        {"number-two-points lenient", 0x2ea5efe928b330f7ull},
        {"number-leading-zero strict", 0xb4e9b3f2e870de03ull},
        {"number-leading-zero lenient", 0xb4e9b3f2e870de03ull},
        {"number-empty-fraction strict", 0xeff8a61253dae5e2ull},
        {"number-empty-fraction lenient", 0xeff8a61253dae5e2ull},
        {"number-empty-exponent strict", 0xc67d25acfaf1be97ull},
        {"number-empty-exponent lenient", 0xc67d25acfaf1be97ull},
        {"float-micros strict", 0x812f5c7b4fec6670ull},
        {"float-micros lenient", 0x812f5c7b4fec6670ull},
        {"float-micros-near-max strict", 0x78f25332d362cfa2ull},
        {"float-micros-near-max lenient", 0x78f25332d362cfa2ull},
    };
    for (const auto &[name, digest] : pinned) {
        std::string json;
        bool lenient = false;
        if (name == "fixture 100") {
            json = clone::exampleForeignTraceJson(100);
        } else if (name == "fixture 5000") {
            json = clone::exampleForeignTraceJson(5000);
        } else {
            const std::size_t space = name.find(' ');
            json = jaeger_corpus::get(name.substr(0, space));
            lenient = name.substr(space + 1) == "lenient";
        }
        EXPECT_EQ(importDigest(json, lenient), digest) << name;
    }
}

} // namespace
