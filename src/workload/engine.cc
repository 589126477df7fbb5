#include "workload/engine.h"

#include <algorithm>
#include <cmath>

#include "trace/tracer.h"

namespace ditto::workload {

namespace {

/** Percentile each class's deadline is promised at (met/missed). */
constexpr double kSloTargetPercentile = 0.99;

} // namespace

WorkloadEngine::WorkloadEngine(app::Deployment &dep,
                               app::ServiceInstance &target,
                               WorkloadSpec spec, std::uint64_t seed)
    : Client(dep, target, spec.connections, 0xe6e00000, spec.timeout,
             spec.propagateDeadline, spec.cancelOnTimeout),
      spec_(std::move(spec)), rng_(seed),
      arrivals_(spec_.arrivals, rng_.split())
{
    if (spec_.classes.empty())
        spec_.classes.push_back(EndpointClass{});
    if (spec_.retry.budgetRatio > 0) {
        retryBudget_.configure(spec_.retry.budgetRatio,
                               spec_.retry.budgetInitial,
                               spec_.retry.budgetCap);
    }
    for (std::size_t i = 0; i < spec_.classes.size(); ++i)
        classPick_.add(static_cast<std::int64_t>(i),
                       spec_.classes[i].weight);
    classes_.resize(spec_.classes.size());

    // Parameterize the think log-normal so its *mean* is meanThink:
    // mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
    const double meanNs = std::max(
        1.0, static_cast<double>(spec_.session.meanThink));
    thinkMu_ = std::log(meanNs) -
        spec_.session.thinkSigma * spec_.session.thinkSigma / 2.0;
}

void
WorkloadEngine::start()
{
    if (running_)
        return;
    running_ = true;
    measureStart_ = dep_.events().now();
    scheduleNextArrival();
}

void
WorkloadEngine::stop()
{
    if (!running_)
        return;
    running_ = false;
    // Sessions mid-think log out now; sessions with a call in flight
    // log out when it settles (continueSession checks running_).
    std::vector<std::uint64_t> idle;
    for (const auto &e : sessions_.entries())
        if (e.value.thinkTimer != 0)
            idle.push_back(e.tag);
    for (const std::uint64_t id : idle) {
        Session *s = sessions_.find(id);
        if (s != nullptr && s->thinkTimer != 0) {
            dep_.events().cancel(s->thinkTimer);
            s->thinkTimer = 0;
        }
        endSession(id);
    }
}

void
WorkloadEngine::beginMeasure()
{
    Client::beginMeasure();
    for (ClassState &cs : classes_) {
        cs.mSent = 0;
        cs.mSettled = 0;
        cs.mOkInDeadline = 0;
        cs.mViolations = 0;
        cs.latency.reset();
    }
}

std::uint64_t
WorkloadEngine::classSent(std::size_t i) const
{
    return classes_[i].sent;
}

std::uint64_t
WorkloadEngine::classOkInDeadline(std::size_t i) const
{
    return classes_[i].okInDeadline;
}

std::uint64_t
WorkloadEngine::classViolations(std::size_t i) const
{
    return classes_[i].violations;
}

SloReport
WorkloadEngine::sloReport() const
{
    SloReport report;
    const double secs =
        sim::toSeconds(dep_.events().now() - measureStart_);
    std::uint64_t totalSent = 0;
    std::uint64_t totalGood = 0;
    for (std::size_t i = 0; i < classes_.size(); ++i) {
        const ClassState &cs = classes_[i];
        const EndpointClass &ec = spec_.classes[i];
        SloClassReport row;
        row.name = ec.name;
        row.endpoint = ec.endpoint;
        row.slo = ec.slo;
        row.sent = cs.mSent;
        row.settled = cs.mSettled;
        row.okInDeadline = cs.mOkInDeadline;
        row.violations = cs.mViolations;
        row.offeredQps = secs > 0
            ? static_cast<double>(cs.mSent) / secs : 0.0;
        row.goodputQps = secs > 0
            ? static_cast<double>(cs.mOkInDeadline) / secs : 0.0;
        row.violationRate = cs.mSettled > 0
            ? static_cast<double>(cs.mViolations) /
                static_cast<double>(cs.mSettled)
            : 0.0;
        row.latencyAtTargetNs =
            cs.latency.percentile(kSloTargetPercentile);
        row.met = cs.mSettled > 0 && cs.mViolations == 0
            ? true
            : (cs.latency.count() > 0 &&
               row.latencyAtTargetNs <= ec.slo.deadline &&
               row.violationRate <= 1.0 - kSloTargetPercentile);
        totalSent += cs.mSent;
        totalGood += cs.mOkInDeadline;
        report.classes.push_back(std::move(row));
    }
    report.offeredQps = secs > 0
        ? static_cast<double>(totalSent) / secs : 0.0;
    report.goodputQps = secs > 0
        ? static_cast<double>(totalGood) / secs : 0.0;
    return report;
}

void
WorkloadEngine::scheduleNextArrival()
{
    if (!running_)
        return;
    const sim::Time now = dep_.events().now();
    const double rate =
        spec_.sessionsPerSec * spec_.shape.factorAt(now);
    const ArrivalProcess::Draw d =
        arrivals_.next(rate, now, spec_.shape.refreshHorizon(now));
    dep_.events().scheduleAfter(
        d.gap, [this, arrival = d.arrival] {
            if (!running_)
                return;
            if (arrival)
                startSession();
            scheduleNextArrival();
        });
}

void
WorkloadEngine::startSession()
{
    const std::uint64_t id = nextSession_++;
    Session s;
    s.conn = static_cast<std::size_t>(id % connectionCount());
    s.callsLeft = static_cast<unsigned>(rng_.uniformInt(
        static_cast<std::int64_t>(spec_.session.minCalls),
        static_cast<std::int64_t>(std::max(spec_.session.minCalls,
                                           spec_.session.maxCalls))));
    s.startTime = dep_.events().now();
    if (spec_.traceSessions) {
        const std::uint64_t tid = nextTrace_++;
        if (dep_.tracer().sampled(tid)) {
            s.traceId = tid;
            s.rootSpan = dep_.tracer().newSpanId();
        }
    }
    ++sessionsStarted_;
    sessions_.emplace(id, std::move(s));
    // Login fires the first call immediately; thinks come after.
    sendCall(id);
}

void
WorkloadEngine::scheduleNextCall(std::uint64_t sessionId)
{
    Session *s = sessions_.find(sessionId);
    if (s == nullptr)
        return;
    const double thinkNs =
        rng_.logNormal(thinkMu_, spec_.session.thinkSigma);
    s->thinkTimer = dep_.events().scheduleAfter(
        static_cast<sim::Time>(std::max(1.0, thinkNs)),
        [this, sessionId] {
            Session *sp = sessions_.find(sessionId);
            if (sp == nullptr)
                return;
            sp->thinkTimer = 0;
            if (!running_) {
                endSession(sessionId);
                return;
            }
            sendCall(sessionId);
        });
}

std::uint32_t
WorkloadEngine::pickClass(Session &s)
{
    if (s.hasLast && rng_.bernoulli(spec_.session.endpointAffinity))
        return s.lastClass;
    return static_cast<std::uint32_t>(classPick_.sample(rng_));
}

void
WorkloadEngine::sendCall(std::uint64_t sessionId)
{
    Session *s = sessions_.find(sessionId);
    if (s == nullptr)
        return;
    const std::uint32_t cls = pickClass(*s);
    s->lastClass = cls;
    s->hasLast = true;
    const EndpointClass &ec = spec_.classes[cls];
    const std::uint32_t bytes = ec.reqBytesMin >= ec.reqBytesMax
        ? ec.reqBytesMin
        : static_cast<std::uint32_t>(rng_.uniformInt(
              static_cast<std::int64_t>(ec.reqBytesMin),
              static_cast<std::int64_t>(ec.reqBytesMax)));
    retryBudget_.onFresh();
    sendAttempt(sessionId, cls, bytes, /*attempt=*/1);
}

void
WorkloadEngine::sendAttempt(std::uint64_t sessionId,
                            std::uint32_t cls, std::uint32_t bytes,
                            unsigned attempt)
{
    Session *s = sessions_.find(sessionId);
    if (s == nullptr)
        return;
    const EndpointClass &ec = spec_.classes[cls];
    os::Message req;
    req.bytes = bytes;
    req.endpoint = ec.endpoint;
    req.tag = nextTag_++;
    req.traceId = s->traceId != 0 ? s->traceId : nextTrace_++;
    if (s->rootSpan != 0)
        req.parentSpan = s->rootSpan;
    req.priority = ec.priority;
    ClassState &cs = classes_[cls];
    ++cs.sent;
    if (dep_.events().now() >= measureStart_)
        ++cs.mSent;

    Call call;
    call.session = sessionId;
    call.cls = cls;
    call.attempt = attempt;
    call.bytes = bytes;
    send(s->conn, std::move(req), call);
}

bool
WorkloadEngine::maybeRetry(const Call &c)
{
    if (spec_.retry.maxAttempts <= 1 ||
        c.attempt >= spec_.retry.maxAttempts)
        return false;
    if (!running_ || sessions_.find(c.session) == nullptr)
        return false;
    // The budget token is withdrawn only once every cheaper gate has
    // passed, so a disabled-retry config never touches the bucket.
    if (!retryBudget_.allowWithdraw()) {
        ++retriesSuppressed_;
        return false;
    }
    ++retriesSent_;
    dep_.events().scheduleAfter(
        std::max<sim::Time>(1, spec_.retry.backoff),
        [this, sessionId = c.session, cls = c.cls, bytes = c.bytes,
         attempt = c.attempt + 1] {
            if (sessions_.find(sessionId) == nullptr)
                return;
            if (!running_) {
                // Engine stopped during the backoff: the call ends
                // here (every attempt already settled) and the
                // session logs out through the normal path.
                continueSession(sessionId);
                return;
            }
            sendAttempt(sessionId, cls, bytes, attempt);
        });
    return true;
}

void
WorkloadEngine::settled(std::size_t, const Call &call, Settle how,
                        sim::Time latency)
{
    ClassState &cs = classes_[call.cls];
    const EndpointClass &ec = spec_.classes[call.cls];
    const bool timedOut = how == Settle::TimedOut;
    ++cs.settled;
    const bool good = how == Settle::Ok && latency <= ec.slo.deadline;
    if (good)
        ++cs.okInDeadline;
    else
        ++cs.violations;
    if (call.sendTime >= measureStart_) {
        ++cs.mSettled;
        if (good)
            ++cs.mOkInDeadline;
        else
            ++cs.mViolations;
        // Timeouts carry no response latency; they show up in the
        // violation rate instead of skewing the percentile.
        if (!timedOut)
            cs.latency.record(latency);
    }
    if ((how == Settle::Shed || timedOut) && maybeRetry(call))
        return; // the retry attempt carries the session forward
    continueSession(call.session);
}

void
WorkloadEngine::continueSession(std::uint64_t sessionId)
{
    Session *s = sessions_.find(sessionId);
    if (s == nullptr)
        return;
    if (s->callsLeft > 0)
        --s->callsLeft;
    if (s->callsLeft == 0 || !running_) {
        endSession(sessionId);
        return;
    }
    scheduleNextCall(sessionId);
}

void
WorkloadEngine::endSession(std::uint64_t sessionId)
{
    Session *s = sessions_.find(sessionId);
    if (s == nullptr)
        return;
    if (s->traceId != 0) {
        trace::Span span;
        span.traceId = s->traceId;
        span.spanId = s->rootSpan;
        span.parentSpanId = 0;
        span.service = "workload";
        span.endpoint =
            s->hasLast ? spec_.classes[s->lastClass].endpoint : 0;
        span.start = s->startTime;
        span.end = dep_.events().now();
        dep_.tracer().recordSpan(std::move(span));
    }
    ++sessionsFinished_;
    sessions_.erase(sessionId);
}

} // namespace ditto::workload
