#include "workload/slo.h"

#include <cinttypes>
#include <cstdio>

#include "workload/client.h"
#include "workload/engine.h"

namespace ditto::workload {

std::string
SloReport::table() const
{
    // Fixed format => byte-identical output for identical runs.
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-10s %8s %12s %12s %9s %10s %11s %s\n", "class",
                  "endpoint", "offered_qps", "goodput_qps",
                  "viol_rate", "p_tgt_ms", "deadline_ms", "met");
    out += line;
    for (const SloClassReport &row : classes) {
        std::snprintf(
            line, sizeof(line),
            "%-10s %8u %12.1f %12.1f %9.4f %10.3f %11.3f %s\n",
            row.name.c_str(), row.endpoint, row.offeredQps,
            row.goodputQps, row.violationRate,
            static_cast<double>(row.latencyAtTargetNs) / 1e6,
            static_cast<double>(row.slo.deadline) / 1e6,
            row.met ? "yes" : "NO");
        out += line;
    }
    std::snprintf(line, sizeof(line),
                  "%-10s %8s %12.1f %12.1f\n", "total", "-",
                  offeredQps, goodputQps);
    out += line;
    return out;
}

double
kneePointRate(const std::vector<std::pair<double, double>> &sweep,
              double tolerance)
{
    bool sawOffered = false;
    for (const auto &[offered, goodput] : sweep) {
        if (offered <= 0)
            continue;
        sawOffered = true;
        if (goodput < offered * (1.0 - tolerance))
            return offered;
    }
    return sawOffered ? kKneeNone : kKneeEmptySweep;
}

void
registerClientMetrics(obs::MetricsRegistry &registry,
                      const Client &client, const std::string &label)
{
    const obs::MetricsRegistry::Labels labels = {{"client", label}};
    const struct
    {
        const char *name;
        const char *help;
        std::uint64_t (Client::*fn)() const;
    } counters[] = {
        {"ditto_client_sent_total", "Requests sent by the client",
         &Client::sent},
        {"ditto_client_completed_total",
         "Responses received (any status)", &Client::completed},
        {"ditto_client_ok_total", "Responses with Ok status",
         &Client::completedOk},
        {"ditto_client_error_total", "Responses with Error status",
         &Client::completedError},
        {"ditto_client_shed_total", "Responses with Shed status",
         &Client::completedShed},
        {"ditto_client_timed_out_total",
         "Requests that hit the client deadline", &Client::timedOut},
        {"ditto_client_late_responses_total",
         "Replies that arrived after their request timed out",
         &Client::lateResponses},
        {"ditto_client_cancels_sent_total",
         "Cancellation chase messages sent after timeouts",
         &Client::cancelsSent},
    };
    for (const auto &c : counters) {
        registry.addCounterFn(c.name, labels, c.help,
                              [&client, fn = c.fn] {
                                  return (client.*fn)();
                              });
    }
    registry.addGaugeFn(
        "ditto_client_achieved_qps", labels,
        "Completed requests/s over the measured window",
        [&client] { return client.achievedQps(); });
    registry.addGaugeFn(
        "ditto_client_goodput_qps", labels,
        "Ok-status requests/s over the measured window",
        [&client] { return client.goodput(); });
    registry.addHistogram("ditto_client_latency_ns", labels,
                          "Client-observed response latency",
                          &client.latency());
    registry.addGaugeFn("ditto_client_in_flight", labels,
                        "Calls awaiting a response or timeout",
                        [&client] {
                            return static_cast<double>(
                                client.inFlight());
                        });
}

void
registerEngineMetrics(obs::MetricsRegistry &registry,
                      const WorkloadEngine &engine,
                      const std::string &client)
{
    registerClientMetrics(registry, engine, client);
    const obs::MetricsRegistry::Labels labels = {{"client", client}};
    registry.addCounterFn(
        "ditto_workload_sessions_started_total", labels,
        "User sessions admitted",
        [&engine] { return engine.sessionsStarted(); });
    registry.addCounterFn(
        "ditto_workload_sessions_finished_total", labels,
        "User sessions that logged out",
        [&engine] { return engine.sessionsFinished(); });
    registry.addGaugeFn("ditto_workload_active_sessions", labels,
                        "Sessions currently logged in", [&engine] {
                            return static_cast<double>(
                                engine.activeSessions());
                        });
    // Client-side retry series, present only when retries are armed
    // (ClientRetrySpec::maxAttempts > 1) so default engines register
    // an unchanged set.
    if (engine.spec().retry.maxAttempts > 1) {
        registry.addCounterFn(
            "ditto_client_retries_sent_total", labels,
            "Retry attempts issued by the client",
            [&engine] { return engine.retriesSent(); });
        registry.addCounterFn(
            "ditto_client_retries_suppressed_total", labels,
            "Retries suppressed by the exhausted client budget",
            [&engine] { return engine.retriesSuppressed(); });
        registry.addGaugeFn(
            "ditto_client_retry_tokens", labels,
            "Client retry-budget tokens available",
            [&engine] { return engine.retryTokens(); });
    }
    for (std::size_t i = 0; i < engine.classCount(); ++i) {
        const obs::MetricsRegistry::Labels classLabels = {
            {"class", engine.classSpec(i).name}, {"client", client}};
        registry.addCounterFn(
            "ditto_slo_sent_total", classLabels,
            "Calls sent in this endpoint class",
            [&engine, i] { return engine.classSent(i); });
        registry.addCounterFn(
            "ditto_slo_ok_in_deadline_total", classLabels,
            "Calls answered Ok within the class deadline",
            [&engine, i] { return engine.classOkInDeadline(i); });
        registry.addCounterFn(
            "ditto_slo_violations_total", classLabels,
            "Calls that settled outside the class SLO",
            [&engine, i] { return engine.classViolations(i); });
    }
}

} // namespace ditto::workload
