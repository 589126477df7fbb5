/**
 * @file
 * Jaeger-compatible JSON trace export and re-ingestion.
 *
 * The exporter renders a Tracer's collected record -- server spans,
 * client RPC edges, and resilience outcome events -- in the JSON
 * layout Jaeger's HTTP API serves ({"data": [{traceID, spans,
 * processes}]}), so the files load in standard trace tooling. The
 * importer parses such a file back into a Tracer whose spans(),
 * edges(), and outcomes() vectors are element-for-element identical
 * to the exported ones, which is what lets TopologyAnalyzer recover
 * a bit-identical DAG from the on-disk file (the Ditto ingestion
 * path, Sec. 4.2).
 *
 * Encoding notes:
 *  - RPC edges become zero-duration client-kind spans tagged with
 *    peer.service and request/response byte sizes.
 *  - Outcome events become span logs on the matching server span (or
 *    on a synthetic "outcome" span when the server span was not
 *    sampled).
 *  - Jaeger timestamps are microseconds; the exact nanosecond values
 *    ride along in ditto.*_ns string tags so no precision is lost.
 *  - Every record carries a ditto.seq tag with its original vector
 *    index; the importer sorts by it to restore exact record order.
 *
 * Foreign traces: documents without the dittoMeta marker are treated
 * as exports from a system we do not control (the actual Ditto use
 * case). The importer then tolerates the wild-west parts of real
 * Jaeger output -- float microsecond timestamps (converted to ns
 * losslessly from the source literal), 128-bit trace ids (low 64 bits
 * kept), client spans that parent the callee's server span, byte
 * sizes in http.*_content_length tags, and endpoint names given only
 * as operationName strings (interned per service in document order).
 * Malformed structure is never silently dropped: duplicate spanIDs,
 * parents referencing missing spans, zero/negative durations, and
 * unknown processIDs raise named errors, or -- with
 * ImportOptions::lenient -- are repaired and tallied in ImportReport.
 *
 * Determinism: the exported bytes are a pure function of the Tracer
 * contents, so two runs that produce identical traces (same seed, any
 * RunExecutor worker count -- DESIGN.md §8) export identical files.
 *
 * Caveat: exact per-kind outcome counters survive the round trip only
 * at sampleRate 1.0; at lower rates the re-imported counters reflect
 * just the sampled events that were exported.
 */

#ifndef DITTO_OBS_JAEGER_H_
#define DITTO_OBS_JAEGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/tracer.h"

namespace ditto::obs {

/** Render the tracer's record as a Jaeger-JSON document. */
std::string exportJaegerJson(const trace::Tracer &tracer);

/** Export to a file. Throws std::runtime_error on I/O failure. */
void writeJaegerJsonFile(const trace::Tracer &tracer,
                         const std::string &path);

/** Import behavior knobs (only affect foreign documents). */
struct ImportOptions
{
    /**
     * Downgrade recoverable foreign-trace defects (duplicate spanID,
     * missing parent, zero/negative duration, unknown processID,
     * calleeless client span) from errors to counted warnings with a
     * documented repair: keep-first, reparent-to-root, clamp-to-zero,
     * skip-span, drop-edge respectively.
     */
    bool lenient = false;
};

/** What the importer saw and (in lenient mode) repaired. */
struct ImportReport
{
    std::uint64_t traces = 0;
    std::uint64_t nativeSpans = 0;   //!< spans from a dittoMeta doc
    std::uint64_t foreignSpans = 0;  //!< server spans kept, foreign doc
    std::uint64_t clientSpans = 0;   //!< foreign client spans -> edges
    std::uint64_t derivedEdges = 0;  //!< edges from server-span parentage
    std::uint64_t internalSpans = 0; //!< non server/client kinds skipped
    // -- foreign-trace defects (errors unless lenient) ----------------
    std::uint64_t duplicateSpans = 0;
    std::uint64_t missingParents = 0;
    std::uint64_t zeroDurationSpans = 0;
    std::uint64_t negativeDurationSpans = 0;
    std::uint64_t unknownProcessSpans = 0;
    std::uint64_t calleelessClientSpans = 0;
    /** First 32 human-readable messages (counters stay exact). */
    std::vector<std::string> warnings;
    /**
     * Foreign endpoint interning: service -> operationName per
     * endpoint id, in first-appearance document order. Span::endpoint
     * indexes into this; clone synthesis reuses the same ids.
     */
    std::map<std::string, std::vector<std::string>> endpointNames;

    bool foreign() const { return foreignSpans > 0; }
    std::uint64_t defects() const
    {
        return duplicateSpans + missingParents + zeroDurationSpans +
               negativeDurationSpans + unknownProcessSpans +
               calleelessClientSpans;
    }
};

/**
 * Parse a Jaeger-JSON document -- our own export or a foreign one --
 * back into a Tracer. Throws std::runtime_error with a named,
 * actionable message on malformed input; with opts.lenient,
 * recoverable foreign defects are repaired and tallied in *report
 * instead. `report` (optional) also receives ingest statistics and
 * the foreign endpoint-name interning table.
 */
trace::Tracer importJaegerJson(const std::string &text,
                               const ImportOptions &opts,
                               ImportReport *report = nullptr);

/** Strict-mode convenience overload. */
trace::Tracer importJaegerJson(const std::string &text);

/** Import from a file. Throws std::runtime_error on I/O failure. */
trace::Tracer readJaegerJsonFile(const std::string &path,
                                 const ImportOptions &opts,
                                 ImportReport *report = nullptr);
trace::Tracer readJaegerJsonFile(const std::string &path);

} // namespace ditto::obs

#endif // DITTO_OBS_JAEGER_H_
