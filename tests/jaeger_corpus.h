/**
 * @file
 * The malformed-Jaeger corpus: small foreign (no dittoMeta) documents,
 * each carrying one named import defect or number edge case. The
 * CloneImportErrors tests import each one and check its named error
 * or lenient repair; the JSON differential tests parse all of them.
 */

#ifndef DITTO_TESTS_JAEGER_CORPUS_H_
#define DITTO_TESTS_JAEGER_CORPUS_H_

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ditto::jaeger_corpus {

/** A one-trace foreign document (no dittoMeta) around `spans`. */
inline std::string
doc(const std::string &spans, const std::string &processes =
                                  "\"p1\": {\"serviceName\": \"alpha\"}, "
                                  "\"p2\": {\"serviceName\": \"beta\"}")
{
    return "{\"data\": [{\"traceID\": \"0000000000000abc\", "
           "\"spans\": [" +
           spans + "], \"processes\": {" + processes + "}}]}";
}

/** One span object; parent/kind/tags are optional. */
inline std::string
span(const std::string &sid, const std::string &op,
     const std::string &parent, const std::string &startUs,
     const std::string &durUs, const std::string &pid,
     const std::string &kind = "server",
     const std::string &extraTags = "")
{
    std::string tags = "{\"key\": \"span.kind\", \"type\": "
                       "\"string\", \"value\": \"" +
        kind + "\"}";
    if (!extraTags.empty())
        tags += ", " + extraTags;
    std::string refs;
    if (!parent.empty())
        refs = "\"references\": [{\"refType\": \"CHILD_OF\", "
               "\"traceID\": \"0000000000000abc\", \"spanID\": \"" +
            parent + "\"}], ";
    return "{\"traceID\": \"0000000000000abc\", \"spanID\": \"" + sid +
        "\", \"operationName\": \"" + op + "\", " + refs +
        "\"startTime\": " + startUs + ", \"duration\": " + durUs +
        ", \"tags\": [" + tags + "], \"processID\": \"" + pid + "\"}";
}

/** A server span timed by ditto.start_ns/ditto.end_ns string tags. */
inline std::string
nsTagSpan(const std::string &sid, const std::string &startNs,
          const std::string &endNs)
{
    const auto tag = [](const char *key, const std::string &value) {
        return "{\"key\": \"" + std::string(key) +
            "\", \"type\": \"string\", \"value\": \"" + value +
            "\"}";
    };
    return span(sid, "op", "", "1000", "50", "p1", "server",
                tag("ditto.start_ns", startNs) + ", " +
                    tag("ditto.end_ns", endNs));
}

/** Every corpus document, by name. */
inline std::vector<std::pair<std::string, std::string>>
all()
{
    return {
        {"duplicate-span-id",
         doc(span("0000000000000001", "op", "", "1000", "50", "p1") +
             ", " +
             span("0000000000000001", "op", "", "2000", "60", "p1"))},
        {"missing-parent", doc(span("0000000000000002", "op",
                                    "00000000000000ff", "1000", "50",
                                    "p1"))},
        {"zero-duration",
         doc(span("0000000000000003", "op", "", "1000", "0", "p1"))},
        {"negative-duration",
         doc(span("0000000000000004", "op", "", "1000", "-5", "p1"))},
        {"negative-start",
         doc(span("0000000000000005", "op", "", "-1.5", "50", "p1"))},
        {"unknown-process-id",
         doc(span("0000000000000006", "op", "", "1000", "50", "p9") +
             ", " +
             span("0000000000000007", "op", "", "2000", "60", "p1"))},
        {"calleeless-client-span",
         doc(span("0000000000000008", "op", "", "1000", "500", "p1") +
             ", " +
             span("0000000000000009", "call", "0000000000000008",
                  "1100", "50", "p1", "client"))},
        {"bad-hex-id",
         doc(span("not-hex-at-all", "op", "", "1000", "50", "p1"))},
        {"timestamp-overflow",
         doc(span("000000000000000a", "op", "", "18446744073709551615",
                  "50", "p1"))},
        {"number-two-points",
         doc(span("000000000000000b", "op", "", "1.2.3", "50", "p1"))},
        {"number-leading-zero",
         doc(span("000000000000000c", "op", "", "0123", "50", "p1"))},
        {"number-empty-fraction",
         doc(span("000000000000000d", "op", "", "1.", "50", "p1"))},
        {"number-empty-exponent",
         doc(span("000000000000000e", "op", "", "1e", "50", "p1"))},
        {"float-micros",
         doc(span("000000000000000f", "op", "", "1000.125", "123.456",
                  "p1"))},
        {"float-micros-near-max",
         doc(span("0000000000000010", "op", "", "0",
                  "18446744073709550.999", "p1"))},
        // Decimal tags that strtoull would read as 2^64-1, 12 and 5.
        {"ns-tag-negative",
         doc(nsTagSpan("0000000000000011", "1000", "-1"))},
        {"ns-tag-space",
         doc(nsTagSpan("0000000000000012", " 12", "2000"))},
        {"ns-tag-plus", doc(nsTagSpan("0000000000000013", "+5", "2000"))},
    };
}

/** The corpus document called `name`. */
inline std::string
get(std::string_view name)
{
    for (auto &[n, json] : all())
        if (n == name)
            return json;
    throw std::logic_error("no corpus document " + std::string(name));
}

} // namespace ditto::jaeger_corpus

#endif // DITTO_TESTS_JAEGER_CORPUS_H_
