/**
 * @file
 * ditto_bench: the repository benchmark program.
 *
 * Runs one named workload for a host-time budget and prints one JSON
 * object on stdout: every metric (end-to-end and per-layer) with its
 * unit, the output checks made and how many failed, and `sim_digest`,
 * an FNV-1a hash of the simulated results.
 *
 * A run repeats *passes*. Each pass sets its world up from the seed,
 * then simulates it; every pass of a run is the same seeded
 * simulation, so every pass must reproduce the same digest (checked).
 * End-to-end host times are medians over passes (set-up time: over
 * set-ups), each re-timed at a reference speed by a loop the run
 * interleaves with the workload every 10 ms (HostSpeed); per-layer host
 * times are raw medians over passes; simulated counts come from one
 * pass and repeat exactly.
 *
 * Everything is measured from the benchmark's side: it times the calls
 * it makes into each layer's public functions and reads counters from
 * existing accessors. With --trace-out it also records one span per
 * timed call (name "layer.op", host start/end, parent, pass) and
 * writes them as JSON when the run ends; layer_report.py turns them
 * into per-layer self time.
 *
 * Usage:
 *   ditto_bench --workload W [--seed N] [--seconds S] [--jobs J]
 *               [--size full|smoke] [--unstepped] [--check-facade]
 *               [--trace-out FILE]
 */

#include <pthread.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "app/deployment.h"
#include "apps/catalog.h"
#include "clone/foreign_fixture.h"
#include "clone/trace_clone.h"
#include "cluster/autoscaler.h"
#include "cluster/placer.h"
#include "cluster/replica_set.h"
#include "cluster/topo_gen.h"
#include "core/ditto.h"
#include "core/topology_analyzer.h"
#include "hw/platform.h"
#include "obs/jaeger.h"
#include "obs/metrics.h"
#include "obs/register.h"
#include "profile/perf_report.h"
#include "profile/session.h"
#include "sim/run_executor.h"
#include "workload/engine.h"
#include "workload/loadgen.h"

using namespace ditto;

namespace {

using Clock = std::chrono::steady_clock;
using Interval = std::pair<Clock::time_point, Clock::time_point>;

/** Seed at which every workload reproduces its documented configuration. */
constexpr std::uint64_t kDefaultSeed = 42;

/**
 * Per-workload seed: `base` at the default seed, a distinct seed for
 * every other one.
 */
std::uint64_t
derive(std::uint64_t base, std::uint64_t seed)
{
    return base ^ ((seed ^ kDefaultSeed) * 0x9e3779b97f4a7c15ull);
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
since(Clock::time_point t0)
{
    return seconds(Clock::now() - t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- host speed ----------------------------------------------------------

/**
 * Records of the reference loop, written by the SIGALRM handler. Plain
 * arrays and an atomic count: the handler may not allocate or lock.
 */
struct LoopLog
{
    static constexpr std::size_t kCapacity = 1u << 17;  // 20 min at 10 ms

    std::array<std::uint32_t, 1u << 14> table;  //!< 64 KB of data
    std::array<std::uint32_t, 1u << 12> code;   //!< the loop's "program"
    std::uint64_t sink = 0;
    std::array<Clock::time_point, kCapacity> start;
    std::array<Clock::time_point, kCapacity> end;
    std::atomic<std::size_t> count{0};
};

LoopLog gLoops;

/**
 * The reference loop: a small table-driven interpreter (unpredictable
 * branches, dependent loads from a 64 KB table, integer arithmetic),
 * the mix of the simulator's own inner loops. About 0.2 ms.
 */
std::uint64_t
referenceLoop(const LoopLog &log, std::uint64_t acc)
{
    constexpr std::uint32_t kMask = (1u << 14) - 1;
    std::uint32_t pc = 0;
    for (int k = 0; k < 10'000; ++k) {
        const std::uint32_t op = log.code[pc & 0xfff];
        switch (op & 7) {
        case 0: acc += log.table[(acc + op) & kMask]; break;
        case 1: acc ^= op * 2654435761u; break;
        case 2: acc = acc * 31 + (op >> 3); break;
        case 3:
            if (acc & 1)
                acc += log.table[op & kMask];
            else
                acc -= op;
            break;
        case 4: acc = (acc >> 3) | (acc << 61); break;
        case 5: pc += op >> 28; break;
        case 6: acc += log.table[(op >> 4) & kMask] & 0xff; break;
        default: acc = ~acc; break;
        }
        pc = pc * 1103515245u + 12345u + static_cast<std::uint32_t>(acc & 3);
    }
    return acc;
}

void
onAlarm(int)
{
    const int savedErrno = errno;
    const std::size_t i = gLoops.count.load(std::memory_order_relaxed);
    if (i < LoopLog::kCapacity) {
        gLoops.start[i] = Clock::now();
        gLoops.sink = referenceLoop(gLoops, gLoops.sink);
        gLoops.end[i] = Clock::now();
        gLoops.count.store(i + 1, std::memory_order_release);
    }
    errno = savedErrno;
}

/**
 * Host times of one run expressed at a reference speed.
 *
 * On a shared machine the speed of a core drifts by a quarter and more
 * over seconds to minutes as other tenants come and go (CPU steal stays
 * near zero: the cores run slower), and runs of the benchmark made at
 * different moments see different stretches of it. So every 10 ms of
 * wall time a SIGALRM handler runs a fixed reference loop on the main
 * thread and records how long it took. A host interval is then re-timed
 * piece by piece: each stretch between two runs of the loop is scaled
 * by the loop's reference time over its local time (the median of the
 * five runs around that stretch), and the loop's own runs are left out.
 * When the machine slows, the loop slows with it and the re-timed
 * interval stays put. The loop is the benchmark's own code, so no
 * change to the simulator moves it; a slower simulator still reads
 * slower.
 *
 * Only the main thread takes the signal (see makeExecutor). A disabled
 * HostSpeed (traced runs) runs no loop and reports raw host times.
 */
class HostSpeed
{
  public:
    explicit HostSpeed(bool enabled) : enabled_(enabled)
    {
        if (!enabled_)
            return;
        std::uint64_t x = 12345;
        auto next = [&x] {
            x = x * 6364136223846793005ull + 1;
            return static_cast<std::uint32_t>(x >> 33);
        };
        for (std::uint32_t &t : gLoops.table)
            t = next();
        for (std::uint32_t &c : gLoops.code)
            c = next();
        struct sigaction sa{};
        sa.sa_handler = onAlarm;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        if (sigaction(SIGALRM, &sa, nullptr) != 0)
            throw std::runtime_error("cannot install the SIGALRM handler");
        setTimer(kPeriodUs);
    }

    ~HostSpeed()
    {
        if (enabled_)
            setTimer(0);
    }

    HostSpeed(const HostSpeed &) = delete;
    HostSpeed &operator=(const HostSpeed &) = delete;

    /**
     * Stop the loop and take its local times; call before
     * referenceSeconds().
     */
    void
    stop()
    {
        if (!enabled_)
            return;
        // A pending signal is delivered before setitimer returns; after
        // it, the log no longer changes.
        setTimer(0);
        const std::size_t n = gLoops.count.load(std::memory_order_acquire);
        std::vector<double> took(n);
        for (std::size_t i = 0; i < n; ++i)
            took[i] = seconds(gLoops.end[i] - gLoops.start[i]);
        scale_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t lo = i < 2 ? 0 : i - 2;
            const std::size_t hi = std::min(n, i + 3);
            scale_[i] = kReferenceLoopSeconds /
                median(std::vector<double>(
                    took.begin() + static_cast<std::ptrdiff_t>(lo),
                    took.begin() + static_cast<std::ptrdiff_t>(hi)));
        }
        loopSeconds_ = median(took);
    }

    /** Host seconds of [a, b] at the reference speed. */
    double
    referenceSeconds(Clock::time_point a, Clock::time_point b) const
    {
        return retime(a, b, true);
    }

    /** Host seconds of [a, b], without the loop's own runs. */
    double
    hostSeconds(Clock::time_point a, Clock::time_point b) const
    {
        return retime(a, b, false);
    }

    /**
     * The reference speed over this run's speed (1 when disabled or no
     * loop ran); a diagnostic.
     */
    double
    factor() const
    {
        return loopSeconds_ > 0 ? kReferenceLoopSeconds / loopSeconds_ : 1;
    }

  private:
    static constexpr long kPeriodUs = 10'000;
    /**
     * The loop's median time on the machine the bounds were calibrated
     * on (4 vCPUs of a shared 2 GHz Xeon VM).
     */
    static constexpr double kReferenceLoopSeconds = 200e-6;

    double
    retime(Clock::time_point a, Clock::time_point b, bool scaled) const
    {
        const std::size_t n = scale_.size();
        if (n == 0)
            return seconds(b - a);
        const auto *ends = gLoops.end.data();
        std::size_t k = static_cast<std::size_t>(
            std::upper_bound(ends, ends + n, a) - ends);
        double total = 0;
        Clock::time_point from = a;
        for (; k < n && from < b; ++k) {
            // The stretch before loop k runs at loop k's local speed.
            const Clock::time_point to = std::min(gLoops.start[k], b);
            if (to > from)
                total += seconds(to - from) * (scaled ? scale_[k] : 1);
            from = std::max(from, gLoops.end[k]);
        }
        if (from < b)
            total += seconds(b - from) * (scaled ? scale_[n - 1] : 1);
        return total;
    }

    static void
    setTimer(long us)
    {
        itimerval it{};
        it.it_interval.tv_usec = us;
        it.it_value.tv_usec = us;
        setitimer(ITIMER_REAL, &it, nullptr);
    }

    bool enabled_;
    std::vector<double> scale_;
    double loopSeconds_ = 0;
};

/**
 * An executor whose worker threads start with SIGALRM blocked, so that
 * only the main thread runs the reference loop (HostSpeed).
 */
std::unique_ptr<sim::RunExecutor>
makeExecutor(unsigned jobs)
{
    sigset_t alarm;
    sigemptyset(&alarm);
    sigaddset(&alarm, SIGALRM);
    pthread_sigmask(SIG_BLOCK, &alarm, nullptr);
    auto exec = std::make_unique<sim::RunExecutor>(jobs);
    pthread_sigmask(SIG_UNBLOCK, &alarm, nullptr);
    return exec;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    unsigned jobs = 1;
    bool smoke = false;
    /** Run measure windows as equal, individually timed runFor steps. */
    bool stepped = true;
    /** Also run the library facade the workload mirrors and compare. */
    bool checkFacade = false;
    std::string traceOut;
};

// ---- bench-side tracing ---------------------------------------------

/** Spans recorded around the benchmark's calls into each layer. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int
    open(const char *name, int parent, unsigned pass)
    {
        const std::int64_t start = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, parent, pass, start, -1});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int id)
    {
        const std::int64_t end = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].endNs = end;
    }

    /** Write every span as one JSON document. */
    void
    write(const std::string &path, const Options &o) const
    {
        std::ofstream out(path, std::ios::trunc);
        if (!out)
            throw std::runtime_error("cannot write spans to " + path);
        out << "{\"workload\": \"" << o.workload << "\", \"seed\": "
            << o.seed << ", \"jobs\": " << o.jobs << ", \"spans\": [\n";
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "  {\"id\": " << i << ", \"parent\": " << s.parent
                << ", \"name\": \"" << s.name << "\", \"pass\": "
                << s.pass << ", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs << "}"
                << (i + 1 == spans_.size() ? "\n" : ",\n");
        }
        out << "]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        unsigned pass;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::deque<Span> spans_;
};

/** Innermost open span on this thread (-1 at top level). */
thread_local int tCurrentSpan = -1;

constexpr int kInheritParent = -2;

// ---- per-pass books -----------------------------------------------------

/** Simulated work counted through the layers' public accessors. */
enum Count : std::size_t
{
    kEvents,
    kInstructions,  //!< modeled (ExecStats), rounded per service
    kModeledL1d,    //!< modeled L1d accesses (ExecStats)
    kL1i,           //!< simulated cache accesses
    kL1d,
    kL2,
    kLlc,
    kBranchPredictions,
    kSyscalls,
    kContextSwitches,
    kWakeups,
    kNetMessages,
    kNetBytes,
    kPagecacheLookups,
    kDiskRequests,
    kRequests,
    kRpcCalls,
    kRpcOk,
    kRpcRetries,
    kHedges,
    kHedgeWins,
    kShed,
    kCancelled,
    kBrownoutSkipped,
    kTraceSpans,
    kSent,  //!< client (LoadGen / WorkloadEngine) books
    kOk,
    kClientShed,
    kTimedOut,
    kSessions,
    kProfileEvents,
    kProfileL1d,
    kAutoscalerEvals,
    kScaleUps,
    kCountKinds,
};

using Counts = std::array<std::uint64_t, kCountKinds>;

Counts &
operator+=(Counts &a, const Counts &b)
{
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] += b[i];
    return a;
}

/**
 * Add the service-level counters of every instance. ServiceStats are
 * reset by every measure window, so call this right before each reset
 * and once when the deployment is done. Modeled counts are rounded
 * per service so that sums do not depend on the order in which
 * concurrently evaluated sandboxes are merged.
 */
void
foldServices(app::Deployment &dep, Counts &c)
{
    for (const auto &svc : dep.services()) {
        const app::ServiceStats &s = svc->stats();
        c[kInstructions] +=
            static_cast<std::uint64_t>(std::llround(s.exec.instructions));
        c[kModeledL1d] +=
            static_cast<std::uint64_t>(std::llround(s.exec.l1dAccesses));
        c[kRequests] += s.requests;
        c[kRpcCalls] += s.rpcCallsStarted;
        c[kRpcOk] += s.rpcOk;
        c[kRpcRetries] += s.rpcRetries;
        c[kHedges] += s.rpcHedges;
        c[kHedgeWins] += s.rpcHedgeWins;
        c[kShed] += s.requestsShed;
        c[kCancelled] += s.requestsCancelled;
        c[kBrownoutSkipped] += s.rpcBrownoutSkipped;
    }
}

/** Simulated L1d accesses over every cache hierarchy of a deployment. */
std::uint64_t
l1dAccesses(app::Deployment &dep)
{
    std::uint64_t total = 0;
    for (const auto &m : dep.machines()) {
        std::set<const hw::CacheHierarchy *> seen;
        for (unsigned c = 0; c < m->coreCount(); ++c) {
            const hw::CacheHierarchy &h = m->core(c).caches();
            if (seen.insert(&h).second)
                total += h.l1d().stats().accesses;
        }
    }
    return total;
}

/**
 * Add the machine-, network- and tracer-level counters of a
 * deployment. They are cumulative over its lifetime; call once when it
 * is done.
 */
void
addMachineTotals(app::Deployment &dep, Counts &c)
{
    for (const auto &m : dep.machines()) {
        // SMT siblings share one hierarchy: count each once.
        std::set<const hw::CacheHierarchy *> seen;
        for (unsigned i = 0; i < m->coreCount(); ++i) {
            hw::CpuCore &core = m->core(i);
            c[kBranchPredictions] += core.predictor().predictions();
            const hw::CacheHierarchy &h = core.caches();
            if (!seen.insert(&h).second)
                continue;
            c[kL1i] += h.l1i().stats().accesses;
            c[kL1d] += h.l1d().stats().accesses;
            c[kL2] += h.l2().stats().accesses;
        }
        c[kLlc] += m->llc().stats().accesses;
        const os::SyscallCounts &k = m->kernel().counts();
        c[kSyscalls] += k.read + k.write + k.epollWait + k.pread +
            k.pwrite + k.futex + k.nanosleep + k.clone;
        c[kContextSwitches] += m->scheduler().stats().contextSwitches;
        c[kWakeups] += m->scheduler().stats().wakeups;
        c[kPagecacheLookups] += m->pageCache().lookups();
        c[kDiskRequests] += m->disk().requests();
    }
    c[kNetMessages] += dep.network().messagesSent();
    c[kNetBytes] += dep.network().bytesSent();
    c[kTraceSpans] += dep.tracer().spans().size();
}

/** Everything one pass measured and checked. */
class Pass
{
  public:
    Pass(SpanLog &spans, unsigned index, const Options &opts)
        : spans_(spans), index_(index), opts_(opts)
    {
    }

    SpanLog &spans() { return spans_; }
    unsigned index() const { return index_; }
    const Options &opts() const { return opts_; }

    /**
     * Accumulate a host-measured quantity (seconds spent in a layer's
     * calls, or a host-time ratio) under its metric name. Host values
     * vary run to run and stay out of the digest.
     */
    void
    addHost(const char *metric, double v)
    {
        std::lock_guard<std::mutex> lock(mu_);
        host_[metric] += v;
    }

    /** One timed simulation window, [t0, now). */
    void
    addSim(Clock::time_point t0, std::uint64_t events)
    {
        const Interval window{t0, Clock::now()};
        std::lock_guard<std::mutex> lock(mu_);
        simWindows_.push_back(window);
        counts_[kEvents] += events;
    }

    void
    addStep(double ms)
    {
        std::lock_guard<std::mutex> lock(mu_);
        stepMs_.push_back(ms);
    }

    void
    addCounts(const Counts &c)
    {
        std::lock_guard<std::mutex> lock(mu_);
        counts_ += c;
    }

    /**
     * Accumulate a simulated per-layer value (fidelity, sizes) under its
     * metric name; part of the digest.
     */
    void
    addValue(const std::string &metric, double v)
    {
        std::lock_guard<std::mutex> lock(mu_);
        values_[metric] += v;
    }

    /** A deterministic output that is not a metric; part of the digest. */
    void
    note(const std::string &key, const std::string &value)
    {
        std::lock_guard<std::mutex> lock(mu_);
        notes_ += key + "=" + value + "\n";
    }

    void
    note(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        note(key, std::string(buf));
    }

    /** One output check; a failure is reported and counted. */
    void
    check(bool ok, const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++checks_;
        if (!ok)
            failures_.push_back(what);
    }

    const Counts &counts() const { return counts_; }
    const std::vector<Interval> &simWindows() const { return simWindows_; }
    const std::vector<double> &stepMs() const { return stepMs_; }
    const std::map<std::string, double> &host() const { return host_; }
    const std::map<std::string, double> &values() const { return values_; }
    unsigned checks() const { return checks_; }
    const std::vector<std::string> &failures() const { return failures_; }

    /** FNV-1a over every deterministic output of the pass. */
    std::uint64_t
    digest() const
    {
        std::string text = notes_;
        for (std::uint64_t v : counts_)
            text += std::to_string(v) + "\n";
        for (const auto &[name, v] : values_) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            text += name + "=" + buf + "\n";
        }
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (unsigned char ch : text) {
            h ^= ch;
            h *= 0x100000001b3ull;
        }
        return h;
    }

  private:
    SpanLog &spans_;
    unsigned index_;
    const Options &opts_;
    std::mutex mu_;
    Counts counts_{};
    std::vector<Interval> simWindows_;
    std::vector<double> stepMs_;
    std::map<std::string, double> host_;
    std::map<std::string, double> values_;
    std::string notes_;
    unsigned checks_ = 0;
    std::vector<std::string> failures_;
};

/**
 * Times one call into a layer: adds its host seconds to `metric` (when
 * given) and, in a traced run, records a span named `span`.
 */
class Scope
{
  public:
    Scope(Pass &pass, const char *span, const char *metric = nullptr,
          int parent = kInheritParent)
        : pass_(pass), metric_(metric), saved_(tCurrentSpan)
    {
        if (pass.spans().enabled()) {
            id_ = pass.spans().open(
                span, parent == kInheritParent ? tCurrentSpan : parent,
                pass.index());
            tCurrentSpan = id_;
        }
        start_ = Clock::now();
    }

    ~Scope()
    {
        const double s = since(start_);
        if (metric_)
            pass_.addHost(metric_, s);
        if (id_ >= 0) {
            pass_.spans().close(id_);
            tCurrentSpan = saved_;
        }
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    Pass &pass_;
    const char *metric_;
    int saved_;
    int id_ = -1;
    Clock::time_point start_;
};

/**
 * Advance a deployment by `duration` and time it. With `steps` > 1
 * the window runs as that many equal runFor calls, each timed (the
 * per-step samples), unless the run is unstepped.
 */
void
simulate(Pass &pass, app::Deployment &dep, sim::Time duration,
         unsigned steps = 1)
{
    Scope run(pass, "sim.run", "sim.run_s");
    const std::uint64_t before = dep.events().executedCount();
    const auto t0 = Clock::now();
    if (steps <= 1 || !pass.opts().stepped) {
        dep.runFor(duration);
    } else {
        sim::Time done = 0;
        for (unsigned i = 1; i <= steps; ++i) {
            const sim::Time until = duration * i / steps;
            Scope step(pass, "sim.step");
            const auto s0 = Clock::now();
            dep.runFor(until - done);
            pass.addStep(since(s0) * 1e3);
            done = until;
        }
    }
    pass.addSim(t0, dep.events().executedCount() - before);
}

/**
 * Export a deployment's traces and re-import them; checks that the
 * re-import keeps every span and returns it.
 */
trace::Tracer
exportTraces(Pass &pass, app::Deployment &dep)
{
    std::string json;
    {
        Scope s(pass, "obs.export", "obs.export_s");
        json = obs::exportJaegerJson(dep.tracer());
    }
    pass.addValue("obs.export_mb", static_cast<double>(json.size()) / 1e6);
    Scope s(pass, "obs.import", "obs.import_s");
    trace::Tracer reimported = obs::importJaegerJson(json);
    pass.check(reimported.spans().size() == dep.tracer().spans().size(),
               "trace export re-imports " +
                   std::to_string(reimported.spans().size()) + " of " +
                   std::to_string(dep.tracer().spans().size()) + " spans");
    return reimported;
}

/** Client-side conservation: every sent call settled or is in flight. */
template <typename Client>
void
checkClient(Pass &pass, const Client &c, std::uint64_t inFlight,
            const char *who)
{
    const std::uint64_t settled = c.completedOk() + c.completedError() +
        c.completedShed() + c.timedOut() + inFlight;
    pass.check(c.sent() == settled,
               std::string(who) + " conservation: sent " +
                   std::to_string(c.sent()) + " != settled " +
                   std::to_string(settled));
}

/** Add a client's outcome books to the pass. */
template <typename Client>
void
addClient(Pass &pass, const Client &c)
{
    Counts out{};
    out[kSent] = c.sent();
    out[kOk] = c.completedOk();
    out[kClientShed] = c.completedShed();
    out[kTimedOut] = c.timedOut();
    if constexpr (std::is_same_v<Client, workload::WorkloadEngine>)
        out[kSessions] = c.sessionsStarted();
    pass.addCounts(out);
}

/** Network message and byte ledgers, exact once the run has drained. */
void
checkNetwork(Pass &pass, app::Deployment &dep, const char *who)
{
    const os::Network &net = dep.network();
    pass.check(net.messagesSent() ==
                   net.messagesDelivered() + net.messagesDropped(),
               std::string(who) + " message ledger: sent " +
                   std::to_string(net.messagesSent()) + " != delivered " +
                   std::to_string(net.messagesDelivered()) + " + dropped " +
                   std::to_string(net.messagesDropped()));
    pass.check(net.bytesSent() == net.bytesDelivered() + net.bytesDropped(),
               std::string(who) + " byte ledger: sent " +
                   std::to_string(net.bytesSent()) + " != delivered " +
                   std::to_string(net.bytesDelivered()) + " + dropped " +
                   std::to_string(net.bytesDropped()));
}

/** Per instance: RPCs started minus RPCs settled. */
using RpcBacklog = std::map<std::string, std::int64_t>;

RpcBacklog
rpcBacklog(app::Deployment &dep)
{
    RpcBacklog out;
    for (const auto &svc : dep.services()) {
        const app::ServiceStats &s = svc->stats();
        out[svc->instanceLabel()] =
            static_cast<std::int64_t>(s.rpcCallsStarted) -
            static_cast<std::int64_t>(s.rpcOk + s.rpcTimeouts +
                                      s.rpcBreakerFastFails +
                                      s.rpcCancelled);
    }
    return out;
}

/**
 * RPC outcome conservation: every downstream call settled once.
 * `carried` is the backlog taken right before a measure window reset
 * the service counters; calls started before the reset settle after it.
 */
void
checkRpcConservation(Pass &pass, app::Deployment &dep,
                     const RpcBacklog &carried = {})
{
    for (const auto &[label, backlog] : rpcBacklog(dep)) {
        const auto it = carried.find(label);
        const std::int64_t open =
            backlog + (it == carried.end() ? 0 : it->second);
        pass.check(open == 0, "rpc conservation[" + label + "]: " +
                                  std::to_string(open) +
                                  " calls started but not settled");
    }
}

/** No message in flight and every RPC settled (see checkRpcConservation). */
bool
settled(app::Deployment &dep, const RpcBacklog &carried)
{
    const os::Network &net = dep.network();
    if (net.messagesSent() != net.messagesDelivered() + net.messagesDropped())
        return false;
    for (const auto &[label, backlog] : rpcBacklog(dep)) {
        const auto it = carried.find(label);
        if (backlog + (it == carried.end() ? 0 : it->second) != 0)
            return false;
    }
    return true;
}

/** Fold a finished deployment into the pass books. */
void
finishDeployment(Pass &pass, app::Deployment &dep)
{
    Counts c{};
    foldServices(dep, c);
    addMachineTotals(dep, c);
    pass.addCounts(c);
}

/** Fold service counters before a measure window resets them. */
void
beginMeasure(Pass &pass, app::Deployment &dep)
{
    Counts c{};
    foldServices(dep, c);
    pass.addCounts(c);
    dep.beginMeasureAll();
}

// ---- workloads -----------------------------------------------------------

/**
 * One pass of a workload: setUp() builds the world from the seed (its
 * time is `setup_s`); run() does everything else (`wall_s`).
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setUp(Pass &pass) = 0;
    virtual void run(Pass &pass) = 0;
};

/** Relative error in percent with ErrorAccumulator's floors. */
double
errPct(double orig, double synth, double floor)
{
    return 100.0 * std::abs(synth - orig) / std::max(orig, floor);
}

/**
 * The catalog load of an app at one of its levels. Kept out of line:
 * inlined into a constructor, GCC 12 reports a false
 * -Wmaybe-uninitialized inside LoadSpec's default member initializer.
 */
[[gnu::noinline]] workload::LoadSpec
catalogLoad(const apps::AppLoad &load, double apps::AppLoad::*level)
{
    return load.at(load.*level);
}

/**
 * Ditto's own loop on Redis at catalog medium load, stage by stage as
 * core::cloneService runs it (profile, analyzeSkeleton, fineTune on the
 * executor, generateClone), then the original and the clone measured
 * at the tuned load and at the held-out high load.
 *
 * Tolerance 0 makes the tuner spend its whole 10-iteration budget (28
 * candidates), the worst case of the paper's loop: with the default
 * 0.05 the iteration count, and with it the work, depends on the seed.
 * For the same reason the seed drives the client's request stream, not
 * the profiled deployment's own random stream: varying both changed
 * the clone's simulated work by up to 15% from seed to seed.
 */
class CloneSingleTier final : public Workload
{
  public:
    CloneSingleTier(const Options &o, sim::RunExecutor &exec)
        : seed_(79), genSeed_(derive(79, o.seed) ^ 0x10ad),
          evalSeed_(derive(77, o.seed)),
          exec_(exec), spec_(apps::redisSpec()),
          medium_(catalogLoad(apps::redisLoad(), &apps::AppLoad::mediumQps)),
          high_(catalogLoad(apps::redisLoad(), &apps::AppLoad::highQps))
    {
        opts_.profiling.warmup = sim::milliseconds(30);
        opts_.profiling.window = sim::milliseconds(20);
        opts_.tuneWarmup = sim::milliseconds(30);
        opts_.tuneWindow = sim::milliseconds(50);
        opts_.tuneTolerance = 0;
        if (o.smoke) {
            opts_.profiling.warmup = sim::milliseconds(20);
            opts_.profiling.window = sim::milliseconds(20);
            opts_.tuneWarmup = sim::milliseconds(20);
            opts_.tuneWindow = sim::milliseconds(30);
            opts_.maxTuneIterations = 4;
            evalWarm_ = sim::milliseconds(20);
            evalMeasure_ = sim::milliseconds(30);
            evalSteps_ = 30;
        }
        opts_.executor = &exec_;
    }

    void
    setUp(Pass &pass) override
    {
        Scope s(pass, "app.deploy", "app.deploy_s");
        dep_ = std::make_unique<app::Deployment>(seed_);
        os::Machine &machine = dep_->addMachine("node", hw::platformA());
        svc_ = &dep_->deploy(spec_, machine);
        dep_->wireAll();
        gen_ = std::make_unique<workload::LoadGen>(
            *dep_, *svc_, medium_, genSeed_);
        gen_->start();
    }

    void
    run(Pass &pass) override
    {
        const core::CloneResult clone = cloneMirror(pass);
        exportTraces(pass, *dep_);
        finishDeployment(pass, *dep_);

        pass.check(clone.tuning.iterations <= opts_.maxTuneIterations,
                   "tuner ran " + std::to_string(clone.tuning.iterations) +
                       " iterations (limit " +
                       std::to_string(opts_.maxTuneIterations) + ")");
        const core::GenerationConfig &cfg = clone.config;
        pass.note("cfg.inst_scale", cfg.instScale);
        pass.note("cfg.imem_tail_scale", cfg.imemTailScale);
        pass.note("cfg.dmem_tail_scale", cfg.dmemTailScale);
        pass.note("cfg.chase_scale", cfg.chaseScale);
        pass.note("cfg.branch_exp_shift", cfg.branchExpShift);
        pass.addValue("core.tune_iterations", clone.tuning.iterations);

        const profile::PerfReport o =
            evaluate(pass, spec_, medium_, "original");
        const profile::PerfReport c =
            evaluate(pass, clone.spec, core::cloneLoadSpec(medium_), "clone");
        const profile::PerfReport highOrig =
            evaluate(pass, spec_, high_, "original");
        const profile::PerfReport highClone =
            evaluate(pass, clone.spec, core::cloneLoadSpec(high_), "clone");

        pass.addValue("core.err_ipc_pct", errPct(o.ipc, c.ipc, 0.05));
        pass.addValue("core.err_branch_pct",
                      errPct(o.branchMispredictRate,
                             c.branchMispredictRate, 0.01));
        pass.addValue("core.err_l1i_pct",
                      errPct(o.l1iMissRate, c.l1iMissRate, 0.02));
        pass.addValue("core.err_l1d_pct",
                      errPct(o.l1dMissRate, c.l1dMissRate, 0.02));
        pass.addValue("core.err_l2_pct",
                      errPct(o.l2MissRate, c.l2MissRate, 0.05));
        pass.addValue("core.err_llc_pct",
                      errPct(o.llcMissRate, c.llcMissRate, 0.05));
        pass.addValue("core.heldout_err_ipc_pct",
                      errPct(highOrig.ipc, highClone.ipc, 0.05));

        if (pass.opts().checkFacade)
            checkFacade(pass, cfg, clone.tuning.iterations);
    }

  private:
    std::uint64_t seed_;
    std::uint64_t genSeed_;
    std::uint64_t evalSeed_;
    sim::RunExecutor &exec_;
    core::CloneOptions opts_;
    sim::Time evalWarm_ = sim::milliseconds(40);
    sim::Time evalMeasure_ = sim::milliseconds(80);
    unsigned evalSteps_ = 80;
    app::ServiceSpec spec_;
    workload::LoadSpec medium_;  //!< the tuned (profiled) load
    workload::LoadSpec high_;    //!< held out from tuning
    std::unique_ptr<app::Deployment> dep_;
    app::ServiceInstance *svc_ = nullptr;
    std::unique_ptr<workload::LoadGen> gen_;

    /** core::cloneService, one timed stage at a time. */
    core::CloneResult
    cloneMirror(Pass &pass)
    {
        core::CloneResult result;
        // profileService starts with a plain warm-up runFor; running
        // it here (untraced by the profiler) times it as simulation and
        // keeps its service counters before the profile resets them.
        simulate(pass, *dep_, opts_.profiling.warmup);
        {
            Counts c{};
            foldServices(*dep_, c);
            pass.addCounts(c);
        }
        {
            Scope s(pass, "profile.profile", "profile.s");
            const std::uint64_t events0 = dep_->events().executedCount();
            const std::uint64_t l1d0 = l1dAccesses(*dep_);
            const auto t0 = Clock::now();
            profile::ProfileOptions po = opts_.profiling;
            po.warmup = 0;
            result.profile = profile::profileService(*dep_, *svc_, po);
            const std::uint64_t events =
                dep_->events().executedCount() - events0;
            pass.addSim(t0, events);
            Counts c{};
            c[kProfileEvents] = events;
            c[kProfileL1d] = l1dAccesses(*dep_) - l1d0;
            pass.addCounts(c);
        }
        {
            Scope s(pass, "core.analyze_skeleton", "core.analyze_s");
            result.skeleton = core::analyzeSkeleton(
                result.profile.threads, opts_.profiling.window,
                medium_.connections, result.profile.asyncEvidence);
        }

        const std::map<std::string, std::string> nameMap = {
            {result.profile.serviceName,
             result.profile.serviceName + opts_.cloneSuffix}};
        const std::vector<profile::EdgeProfile> noEdges;
        const workload::LoadSpec tuneLoad = core::cloneLoadSpec(medium_);
        const hw::PlatformSpec platform = hw::platformA();
        const std::uint64_t sandboxSeed = dep_->seed() ^ 0x745e5eedull;

        result.config = opts_.gen;
        std::mutex mu;
        double candidateSeconds = 0;
        unsigned candidates = 0;
        const auto tune0 = Clock::now();
        {
            Scope tune(pass, "core.tune", "core.tune_s");
            const int tuneSpan = tune.id();
            core::CloneRunner runner =
                [&](const core::GenerationConfig &cfg) {
                    Scope cand(pass, "core.candidate", nullptr, tuneSpan);
                    const auto c0 = Clock::now();
                    app::ServiceSpec candidate;
                    {
                        Scope g(pass, "core.generate", "core.generate_s");
                        candidate = core::generateClone(
                            result.profile, result.skeleton, noEdges,
                            nameMap, cfg);
                    }
                    profile::PerfReport report =
                        runCandidate(pass, candidate, tuneLoad, platform,
                                     sandboxSeed);
                    std::lock_guard<std::mutex> lock(mu);
                    candidateSeconds += since(c0);
                    ++candidates;
                    return report;
                };
            core::TuneOptions tuneOpts;
            tuneOpts.maxIterations = opts_.maxTuneIterations;
            tuneOpts.tolerance = opts_.tuneTolerance;
            tuneOpts.executor = opts_.executor;
            result.tuning = core::fineTune(result.profile.reference,
                                           opts_.gen, runner, tuneOpts);
            result.config = result.tuning.config;
        }
        const double tuneSeconds = since(tune0);
        pass.addValue("core.tune_candidates", candidates);
        pass.addHost("sim.parallel_eff",
                     candidateSeconds /
                         (exec_.jobs() * std::max(tuneSeconds, 1e-9)));
        {
            Scope g(pass, "core.generate", "core.generate_s");
            result.spec = core::generateClone(result.profile,
                                              result.skeleton, noEdges,
                                              nameMap, result.config);
        }
        return result;
    }

    /** core's sandbox run of one fine-tune candidate. */
    profile::PerfReport
    runCandidate(Pass &pass, const app::ServiceSpec &spec,
                 const workload::LoadSpec &load,
                 const hw::PlatformSpec &platform, std::uint64_t seed)
    {
        app::Deployment sandbox(seed);
        app::ServiceInstance *svc = nullptr;
        {
            Scope s(pass, "app.deploy", "app.deploy_s");
            os::Machine &machine = sandbox.addMachine("tune", platform);
            svc = &sandbox.deploy(spec, machine);
            sandbox.wireAll();
        }
        workload::LoadGen gen(sandbox, *svc, load, seed ^ 0x7e57);
        gen.start();
        simulate(pass, sandbox, opts_.tuneWarmup);
        beginMeasure(pass, sandbox);
        gen.beginMeasure();
        simulate(pass, sandbox, opts_.tuneWindow);
        profile::PerfReport report = profile::snapshotService(*svc);
        profile::overrideLatency(report, gen.latency());
        finishDeployment(pass, sandbox);
        return report;
    }

    /**
     * bench_common's runSingleTier with a stepped measure window. The
     * catalog client is closed loop, so neither service reaches the
     * offered rate and at most one request per connection is in flight:
     * the check is that every other request succeeded.
     */
    profile::PerfReport
    evaluate(Pass &pass, const app::ServiceSpec &spec,
             const workload::LoadSpec &load, const char *who)
    {
        Scope e(pass, "bench.evaluate");
        app::Deployment dep(evalSeed_);
        app::ServiceInstance *svc = nullptr;
        {
            Scope s(pass, "app.deploy", "app.deploy_s");
            os::Machine &machine = dep.addMachine("node", hw::platformA());
            svc = &dep.deploy(spec, machine);
            dep.wireAll();
        }
        workload::LoadGen gen(dep, *svc, load, evalSeed_ ^ 0x10ad);
        gen.start();
        simulate(pass, dep, evalWarm_);
        beginMeasure(pass, dep);
        gen.beginMeasure();
        simulate(pass, dep, evalMeasure_, evalSteps_);

        profile::PerfReport report = profile::snapshotService(*svc);
        profile::overrideLatency(report, gen.latency());

        const std::string tag = std::string(who) + "@" +
            std::to_string(static_cast<int>(load.qps));
        const std::uint64_t failed =
            gen.completedError() + gen.completedShed() + gen.timedOut();
        pass.check(failed == 0 &&
                       gen.sent() - gen.completedOk() <= load.connections,
                   tag + " client: " + std::to_string(gen.sent()) +
                       " sent, " + std::to_string(gen.completedOk()) +
                       " ok, " + std::to_string(failed) + " failed");
        addClient(pass, gen);
        finishDeployment(pass, dep);
        pass.note(tag + ".ipc", report.ipc);
        pass.note(tag + ".qps", gen.achievedQps());
        return report;
    }

    /** The mirror must tune exactly as core::cloneService does. */
    void
    checkFacade(Pass &pass, const core::GenerationConfig &cfg,
                unsigned iterations)
    {
        app::Deployment dep(seed_);
        os::Machine &machine = dep.addMachine("node", hw::platformA());
        app::ServiceInstance &svc = dep.deploy(spec_, machine);
        dep.wireAll();
        workload::LoadGen gen(dep, svc, medium_, genSeed_);
        gen.start();
        const core::CloneResult ref = core::cloneService(
            dep, svc, medium_, hw::platformA(), opts_);
        const core::GenerationConfig &r = ref.config;
        pass.check(r.instScale == cfg.instScale &&
                       r.imemTailScale == cfg.imemTailScale &&
                       r.dmemTailScale == cfg.dmemTailScale &&
                       r.chaseScale == cfg.chaseScale &&
                       r.branchExpShift == cfg.branchExpShift &&
                       ref.tuning.iterations == iterations,
                   "benchmark clone pipeline tuned a different "
                   "GenerationConfig than core::cloneService");
    }
};

/**
 * bench_scale's 500-service production-shaped case: a topo_gen layered
 * topology with two entry queries per service, shared backends,
 * heavy-tailed fan-out and diamonds on 4 machines, under an 800 qps
 * open-loop client split 70/30 over the root's two queries, with the
 * autoscaler on the root's first downstream and 5% trace sampling. At
 * the default seed it is exactly that case (topology seed 42,
 * deployment seed 1234, client seed 91), so its ns_per_event is
 * comparable with bench_scale's scale_per_event_ns["500"]. The seed
 * sets the client's request size (64 bytes at the default seed). The
 * topology, the deployment's random stream and the client's arrivals
 * stay fixed: few Poisson arrivals fall in the windows, and drawing
 * either stream per seed varied the work by a sixth to a third.
 *
 * It is the largest bench_scale case whose pass (about 6 s) repeats
 * within one run; the 1000-service case takes 9 s a pass.
 *
 * The warm-up and measure windows are the ones bench_scale times. A
 * drain past the client timeout follows, untimed, so that every
 * request has settled when the books are checked.
 */
class Scale final : public Workload
{
  public:
    explicit Scale(const Options &o) : seed_(o.seed)
    {
        if (o.smoke) {
            services_ = 50;
            depth_ = 4;
            qps_ = 300;
            steps_ = 100;
        }
    }

    void
    setUp(Pass &pass) override
    {
        cluster::TopoSpec topo;
        topo.services = services_;
        topo.depth = depth_;
        topo.seed = 42;
        topo.endpointsPerService = 2;
        topo.sharedBackends = 3;
        topo.fanoutTailAlpha = 1.2;
        topo.diamondProbability = 0.35;
        {
            Scope s(pass, "cluster.topo_gen", "cluster.topo_gen_s");
            topo_ = cluster::generateTopology(topo);
        }
        dep_ = std::make_unique<app::Deployment>(1234,
                                                 /*traceSampleRate=*/0.05);
        {
            Scope s(pass, "cluster.deploy_topology", "app.deploy_s");
            root_ = &cluster::deployTopology(*dep_, topo_, machines_);
        }
        obs::registerDeploymentMetrics(metrics_, *dep_);
        const std::string hot = root_->spec().downstreams.front();
        for (const auto &m : dep_->machines())
            placer_.addMachine(*m, 4);
        set_ = std::make_unique<cluster::ReplicaSet>(*dep_, hot, placer_,
                                                     &metrics_);
        cluster::AutoscalerSpec as;
        as.period = sim::milliseconds(5);
        as.cooldown = sim::milliseconds(15);
        as.queueHigh = 1.5;
        as.queueLow = 0.25;
        as.maxReplicas = 4;
        scaler_ = std::make_unique<cluster::Autoscaler>(*dep_, *set_,
                                                        metrics_, as);
        scaler_->start();
        workload::LoadSpec load;
        load.qps = qps_;
        load.connections = 8;
        load.openLoop = true;
        load.timeout = kTimeout;
        const auto bytes = static_cast<std::uint32_t>(
            64 + (seed_ ^ kDefaultSeed) % 64);
        load.endpoints = {workload::EndpointLoad{0, 0.7, bytes, bytes},
                          workload::EndpointLoad{1, 0.3, bytes, bytes}};
        gen_ = std::make_unique<workload::LoadGen>(*dep_, *root_, load, 91);
    }

    void
    run(Pass &pass) override
    {
        gen_->start();
        simulate(pass, *dep_, sim::milliseconds(20));
        const RpcBacklog carried = rpcBacklog(*dep_);
        beginMeasure(pass, *dep_);
        simulate(pass, *dep_, sim::milliseconds(40), steps_);
        gen_->stop();
        {
            // Past the client timeout, then on until the deepest call
            // chains have settled too.
            Scope s(pass, "sim.drain");
            dep_->runFor(kTimeout + sim::milliseconds(5));
            for (int i = 0; i < 40 && !settled(*dep_, carried); ++i)
                dep_->runFor(sim::milliseconds(5));
        }

        checkClient(pass, *gen_, 0, "client");
        checkRpcConservation(pass, *dep_, carried);
        checkNetwork(pass, *dep_, "scale");
        exportTraces(pass, *dep_);

        addClient(pass, *gen_);
        Counts c{};
        c[kAutoscalerEvals] = scaler_->stats().evaluations;
        c[kScaleUps] = scaler_->stats().scaleUps;
        pass.addCounts(c);
        finishDeployment(pass, *dep_);
        pass.note("edges", static_cast<double>(topo_.edges));
        pass.note("replicas", static_cast<double>(set_->active()));
    }

  private:
    static constexpr sim::Time kTimeout = sim::milliseconds(20);

    std::uint64_t seed_;
    unsigned services_ = 500;
    unsigned depth_ = 5;
    unsigned machines_ = 4;
    double qps_ = 800;
    unsigned steps_ = 1000;
    cluster::GeneratedTopology topo_;
    // Members are destroyed in reverse order: the control loops and the
    // client go before the deployment they reference.
    std::unique_ptr<app::Deployment> dep_;
    app::ServiceInstance *root_ = nullptr;
    obs::MetricsRegistry metrics_;
    cluster::Placer placer_;
    std::unique_ptr<cluster::ReplicaSet> set_;
    std::unique_ptr<cluster::Autoscaler> scaler_;
    std::unique_ptr<workload::LoadGen> gen_;
};

/**
 * A production-shaped 32-service topology with every resilience and
 * overload mechanism armed as ditto-chaos --sessions --overload arms
 * it, driven by user sessions through a x3 flash crowd, fully traced.
 *
 * The topology is the system under test and does not change with the
 * seed; the seed drives the deployment's and the sessions' random
 * streams. Sessions start at a fixed pace and make six calls each:
 * with MMPP starts and 3-10 calls the number of calls in the short
 * window, and with it the work, varied from seed to seed.
 */
class SessionsOverload final : public Workload
{
  public:
    explicit SessionsOverload(const Options &o) : seed_(o.seed)
    {
        if (o.smoke) {
            services_ = 16;
            depth_ = 3;
            measure_ = sim::milliseconds(30);
            flashAt_ = sim::milliseconds(35);
            steps_ = 100;
        }
    }

    void
    setUp(Pass &pass) override
    {
        cluster::TopoSpec ts;
        ts.services = services_;
        ts.depth = depth_;
        ts.rpcDeadline = sim::milliseconds(2);
        ts.workersPerService = 2;
        ts.seed = 7;
        ts.endpointsPerService = 2;
        ts.sharedBackends = 2;
        ts.fanoutTailAlpha = 1.2;
        ts.diamondProbability = 0.35;
        {
            Scope s(pass, "cluster.topo_gen", "cluster.topo_gen_s");
            topo_ = cluster::generateTopology(ts);
        }
        arm(topo_);
        dep_ = std::make_unique<app::Deployment>(derive(7, seed_), 1.0);
        {
            Scope s(pass, "cluster.deploy_topology", "app.deploy_s");
            root_ = &cluster::deployTopology(*dep_, topo_, 4);
            // Replicate the first two level-1 services so hedges and
            // replica exclusion engage.
            unsigned replicated = 0;
            for (std::size_t i = 0;
                 i < topo_.specs.size() && replicated < 2; ++i) {
                if (topo_.level[i] != 1)
                    continue;
                dep_->addReplica(topo_.specs[i].name,
                                 *dep_->machines()[replicated %
                                                   dep_->machines().size()]);
                ++replicated;
            }
        }

        workload::WorkloadSpec ws;
        ws.session.minCalls = 6;
        ws.session.maxCalls = 6;
        // 1,500 calls/s before the flash crowd.
        ws.sessionsPerSec = 1500.0 / ws.session.minCalls;
        ws.connections = 8;
        ws.arrivals.kind = workload::ArrivalKind::Deterministic;
        ws.shape.kind = workload::ShapeKind::FlashCrowd;
        ws.shape.stepAt = flashAt_;
        ws.shape.stepMagnitude = 3.0;
        ws.session.meanThink = sim::milliseconds(1);
        workload::EndpointClass hi;
        hi.name = "query";
        hi.endpoint = 0;
        hi.weight = 0.7;
        hi.priority = 1;
        hi.slo.deadline = sim::milliseconds(5);
        workload::EndpointClass lo = hi;
        lo.name = "batch";
        lo.endpoint = 1;
        lo.weight = 0.3;
        lo.priority = 0;
        ws.classes = {hi, lo};
        ws.timeout = sim::milliseconds(5);
        ws.propagateDeadline = true;
        ws.cancelOnTimeout = true;
        ws.retry.maxAttempts = 2;
        ws.retry.backoff = sim::microseconds(200);
        ws.retry.budgetRatio = 0.1;
        engine_ = std::make_unique<workload::WorkloadEngine>(
            *dep_, *root_, ws, derive(7, seed_) ^ 0x10adull);
    }

    void
    run(Pass &pass) override
    {
        engine_->start();
        simulate(pass, *dep_, sim::milliseconds(20));
        // Service stats are not reset here: RPC conservation is checked
        // over the whole run, and a reset would split calls in flight.
        engine_->beginMeasure();
        simulate(pass, *dep_, measure_, steps_);
        engine_->stop();
        simulate(pass, *dep_, sim::milliseconds(20));

        checkClient(pass, *engine_, engine_->inFlight(), "engine");
        pass.check(engine_->inFlight() == 0,
                   std::to_string(engine_->inFlight()) +
                       " calls still in flight after the drain");
        checkRpcConservation(pass, *dep_);
        checkNetwork(pass, *dep_, "sessions");
        exportTraces(pass, *dep_);

        addClient(pass, *engine_);
        finishDeployment(pass, *dep_);
        pass.note("retries_sent",
                  static_cast<double>(engine_->retriesSent()));
        pass.note("goodput", engine_->goodput());
    }

  private:
    std::uint64_t seed_;
    unsigned services_ = 32;
    unsigned depth_ = 4;
    sim::Time measure_ = sim::milliseconds(50);
    sim::Time flashAt_ = sim::milliseconds(45);
    unsigned steps_ = 1000;
    cluster::GeneratedTopology topo_;
    std::unique_ptr<app::Deployment> dep_;
    app::ServiceInstance *root_ = nullptr;
    std::unique_ptr<workload::WorkloadEngine> engine_;

    /** Arm every service as src/chaos does with overload enabled. */
    static void
    arm(cluster::GeneratedTopology &topo)
    {
        topo.specs[0].clientModel = app::ClientModel::Sync;
        for (std::size_t i = 0; i < topo.specs.size(); ++i) {
            app::ResilienceSpec &res = topo.specs[i].resilience;
            res.retry.maxAttempts = 2;
            res.retry.baseBackoff = sim::microseconds(100);
            res.retry.maxBackoff = sim::milliseconds(1);
            res.shedQueueThreshold = 64;
            res.propagateDeadline = true;
            res.hopMargin = sim::microseconds(100);
            res.cancellation = true;
            if (i % 3 == 0) {
                res.breaker.enabled = true;
                res.breaker.failureThreshold = 3;
                res.breaker.openDuration = sim::milliseconds(2);
            }
            if (i % 2 == 0) {
                res.hedge.enabled = true;
                res.hedge.delay = sim::microseconds(300);
            }
            app::OverloadSpec &ov = res.overload;
            ov.enabled = true;
            ov.initialLimit = 48;
            ov.minLimit = 4;
            ov.window = 16;
            ov.maxSojourn = sim::milliseconds(2);
            ov.deadlineAware = true;
            ov.brownout = true;
            // Grade admission by the classes' priorities.
            ov.priorityLevels = 2;
            res.retry.budgetRatio = 0.1;
            for (app::EndpointSpec &ep : topo.specs[i].endpoints)
                for (app::Op &op : ep.handler.ops)
                    if (op.kind == app::OpKind::Rpc && op.rpcs.size() > 1)
                        op.rpcs.back().optional = true;
        }
    }
};

/**
 * The trace-only cloning pipeline on the built-in foreign Jaeger
 * fixture: ingest, synthesize, then the closure run twice (LoadGen and
 * sessionized), stage by stage as clone::runClosure runs it.
 *
 * The seed picks the trace document's length; the closures run on
 * ClosureOptions' default seed, as a user validating a trace would.
 * Seeded closures started 129 to 164 sessions in the same window, so
 * the work varied with the seed by a sixth.
 */
class TraceClone final : public Workload
{
  public:
    explicit TraceClone(const Options &o)
        : // Multiples of 20 keep the fixture's documented rates.
          traces_((o.smoke ? 400u : 5000u) +
                  20u * static_cast<unsigned>(o.seed % 8))
    {
        if (o.smoke) {
            measure_ = sim::milliseconds(100);
            steps_ = 100;
        }
    }

    void
    setUp(Pass &pass) override
    {
        Scope s(pass, "clone.fixture");
        json_ = clone::exampleForeignTraceJson(traces_);
    }

    void
    run(Pass &pass) override
    {
        clone::TraceModel model;
        {
            Scope s(pass, "clone.ingest", "clone.ingest_s");
            model = clone::ingestTraceJson(json_);
        }
        pass.addValue("obs.ingest_mb",
                      static_cast<double>(json_.size()) / 1e6);
        pass.addValue("clone.spans", static_cast<double>(model.spans));
        pass.check(!model.root.empty(), "ingest found no root service");
        clone::SynthesizedClone synth;
        {
            Scope s(pass, "clone.synthesize", "clone.synthesize_s");
            synth = clone::synthesizeClone(model);
        }

        double worstRatePct = 0;
        for (bool sessionized : {false, true}) {
            clone::ClosureOptions opts;
            opts.measure = measure_;
            opts.sessionized = sessionized;
            const clone::ClosureResult r =
                closure(pass, model, synth, opts);
            const char *tag = sessionized ? "sessionized" : "loadgen";
            pass.check(r.fidelity.pass,
                       std::string(tag) + " closure failed its "
                                          "FidelityTolerance");
            pass.note(std::string(tag) + ".report", r.report());
            worstRatePct =
                std::max(worstRatePct, r.fidelity.maxRateErrPct);
            if (pass.opts().checkFacade) {
                pass.check(clone::runClosure(json_, opts).report() ==
                               r.report(),
                           std::string(tag) + " closure differs from "
                                              "clone::runClosure");
            }
        }
        pass.addValue("clone.closure_rate_err_pct", worstRatePct);
    }

  private:
    unsigned traces_;
    sim::Time measure_ = sim::milliseconds(200);
    unsigned steps_ = 1000;
    std::string json_;

    /** clone::runClosure after ingest and synthesis. */
    clone::ClosureResult
    closure(Pass &pass, const clone::TraceModel &model,
            const clone::SynthesizedClone &synth,
            const clone::ClosureOptions &opts)
    {
        Scope span(pass, "clone.closure", "clone.closure_s");
        clone::ClosureResult res;
        res.model = model;
        res.clone = synth;

        app::Deployment dep(opts.seed);
        app::ServiceInstance *root = nullptr;
        {
            Scope s(pass, "app.deploy", "app.deploy_s");
            std::vector<os::Machine *> machines;
            for (unsigned i = 0; i < std::max(1u, opts.machines); ++i)
                machines.push_back(&dep.addMachine(
                    "clone-m" + std::to_string(i), hw::platformA()));
            for (std::size_t i = 0; i < synth.specs.size(); ++i)
                dep.deploy(synth.specs[i], *machines[i % machines.size()]);
            dep.wireAll();
            root = dep.find(synth.root);
        }
        if (root == nullptr)
            throw std::runtime_error("clone root \"" + synth.root +
                                     "\" not deployed");

        workload::LoadSpec load = synth.load;
        load.qps = opts.qps;
        load.connections = opts.connections;
        std::unique_ptr<workload::LoadGen> gen;
        std::unique_ptr<workload::WorkloadEngine> engine;
        if (opts.sessionized) {
            workload::WorkloadSpec ws;
            ws.sessionsPerSec = opts.qps /
                ((ws.session.minCalls + ws.session.maxCalls) / 2.0);
            ws.connections = opts.connections;
            ws.timeout = load.timeout;
            ws.propagateDeadline = load.propagateDeadline;
            ws.cancelOnTimeout = load.cancelOnTimeout;
            ws.traceSessions = false;
            ws.classes.clear();
            for (const workload::EndpointLoad &ep : load.endpoints) {
                workload::EndpointClass ec;
                ec.name = "ep" + std::to_string(ep.endpoint);
                ec.endpoint = ep.endpoint;
                ec.weight = ep.weight;
                ec.reqBytesMin = ep.reqBytesMin;
                ec.reqBytesMax = ep.reqBytesMax;
                ws.classes.push_back(std::move(ec));
            }
            engine = std::make_unique<workload::WorkloadEngine>(
                dep, *root, ws, opts.seed ^ 0x10adc10eull);
            engine->start();
        } else {
            gen = std::make_unique<workload::LoadGen>(
                dep, *root, load, opts.seed ^ 0x10adc10eull);
            gen->start();
        }
        simulate(pass, dep, opts.warmup);
        const stats::LatencyHistogram baseline = root->stats().latency;
        simulate(pass, dep, opts.measure, steps_);
        const stats::LatencyHistogram window =
            root->stats().latency.since(baseline);
        res.windowP50Ns = window.percentile(0.50);
        res.windowP99Ns = window.percentile(0.99);
        if (engine)
            engine->stop();
        else
            gen->stop();
        simulate(pass, dep, sim::milliseconds(50));

        const trace::Tracer reimported = exportTraces(pass, dep);
        {
            Scope s(pass, "core.analyze_topology", "core.analyze_s");
            res.reanalyzed = core::analyzeTopology(reimported);
        }
        const auto rc = res.reanalyzed.requestCounts.find(synth.root);
        res.cloneRequests = rc != res.reanalyzed.requestCounts.end()
            ? static_cast<std::uint64_t>(std::llround(rc->second))
            : 0;
        {
            Scope s(pass, "clone.compare");
            res.fidelity = clone::compareTopologies(
                model.topology, res.reanalyzed, opts.tolerance);
        }

        checkNetwork(pass, dep, "closure");
        if (engine) {
            checkClient(pass, *engine, engine->inFlight(), "engine");
            addClient(pass, *engine);
        } else {
            checkClient(pass, *gen, 0, "client");
            addClient(pass, *gen);
        }
        checkRpcConservation(pass, dep);
        finishDeployment(pass, dep);
        return res;
    }
};

// ---- run ---------------------------------------------------------------

std::unique_ptr<Workload>
makeWorkload(const Options &o, sim::RunExecutor &exec)
{
    if (o.workload == "clone_single_tier")
        return std::make_unique<CloneSingleTier>(o, exec);
    if (o.workload == "scale_500")
        return std::make_unique<Scale>(o);
    if (o.workload == "sessions_overload")
        return std::make_unique<SessionsOverload>(o);
    if (o.workload == "trace_clone")
        return std::make_unique<TraceClone>(o);
    throw std::runtime_error("unknown workload \"" + o.workload + "\"");
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

class Emitter
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value))
            value = 0;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        text_ += std::string(text_.empty() ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
    }

    const std::string &text() const { return text_; }

  private:
    std::string text_;
};

/** Host seconds of a set of windows, at the reference speed or not. */
double
windowSeconds(const std::vector<Interval> &windows, const HostSpeed &speed,
              bool scaled)
{
    double total = 0;
    for (const auto &[a, b] : windows)
        total += scaled ? speed.referenceSeconds(a, b)
                        : speed.hostSeconds(a, b);
    return total;
}

int
runBench(const Options &o)
{
    std::unique_ptr<sim::RunExecutor> exec = makeExecutor(o.jobs);
    SpanLog spans(!o.traceOut.empty());
    // Traced runs give per-layer times, which stay raw: the loop would
    // land inside whichever span is open.
    HostSpeed speed(!spans.enabled());

    std::vector<std::unique_ptr<Pass>> passes;
    std::vector<Interval> setups;
    std::vector<Interval> runs;
    auto medianSeconds = [](const std::vector<Interval> &v) {
        std::vector<double> s;
        for (const auto &[a, b] : v)
            s.push_back(seconds(b - a));
        return median(s);
    };
    const auto start = Clock::now();
    // Passes repeat until the next one would overrun the budget.
    while (passes.empty() || since(start) + medianSeconds(runs) +
                   medianSeconds(setups) <=
               o.seconds) {
        auto pass = std::make_unique<Pass>(
            spans, static_cast<unsigned>(passes.size()), o);
        {
            Scope root(*pass, "bench.pass");
            std::unique_ptr<Workload> w = makeWorkload(o, *exec);
            const auto s0 = Clock::now();
            {
                Scope s(*pass, "bench.setup");
                w->setUp(*pass);
            }
            setups.emplace_back(s0, Clock::now());
            const auto r0 = Clock::now();
            w->run(*pass);
            runs.emplace_back(r0, Clock::now());
        }
        std::fprintf(stderr,
                     "ditto_bench: %s pass %zu: setup %.4f s, run %.4f s, "
                     "%.0f ns/event (raw host times)\n",
                     o.workload.c_str(), passes.size(),
                     seconds(setups.back().second - setups.back().first),
                     seconds(runs.back().second - runs.back().first),
                     ratio(windowSeconds(pass->simWindows(), speed, false) *
                               1e9,
                           static_cast<double>(pass->counts()[kEvents])));
        passes.push_back(std::move(pass));
        if (o.smoke)
            break;
    }
    // setup_s is a median: set up again, at least nine samples, then as
    // many as the rest of the budget holds, up to 31.
    Pass extra(spans, static_cast<unsigned>(passes.size()), o);
    while (setups.size() < (o.smoke ? 1u : 9u) ||
           (!o.smoke && setups.size() < 31 &&
            since(start) + medianSeconds(setups) <= o.seconds)) {
        std::unique_ptr<Workload> w = makeWorkload(o, *exec);
        const auto s0 = Clock::now();
        {
            Scope s(extra, "bench.setup");
            w->setUp(extra);
        }
        setups.emplace_back(s0, Clock::now());
    }
    speed.stop();

    const Pass &first = *passes.front();
    unsigned attempted = 0;
    unsigned failed = 0;
    for (const auto &p : passes) {
        attempted += p->checks();
        failed += static_cast<unsigned>(p->failures().size());
        for (const std::string &f : p->failures())
            std::fprintf(stderr, "ditto_bench: check failed (pass %u): %s\n",
                         p->index(), f.c_str());
        ++attempted;
        if (p->digest() != first.digest()) {
            ++failed;
            std::fprintf(stderr,
                         "ditto_bench: pass %u digest differs from pass "
                         "0\n",
                         p->index());
        }
    }

    // ---- end-to-end metrics ---------------------------------------------
    // Medians over passes of host times at the reference speed. Every
    // pass does the same simulated work.
    std::vector<double> wallS, setupS, rawWallS, nsPerEvent, rawNsPerEvent,
        mips;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const auto &[r0, r1] = runs[i];
        wallS.push_back(speed.referenceSeconds(r0, r1));
        rawWallS.push_back(speed.hostSeconds(r0, r1));
        const Pass &p = *passes[i];
        const double simS = windowSeconds(p.simWindows(), speed, true);
        const auto events = static_cast<double>(p.counts()[kEvents]);
        nsPerEvent.push_back(ratio(simS * 1e9, events));
        rawNsPerEvent.push_back(
            ratio(windowSeconds(p.simWindows(), speed, false) * 1e9, events));
        mips.push_back(ratio(
            static_cast<double>(p.counts()[kInstructions]) / 1e6, simS));
    }
    for (const auto &[s0, s1] : setups)
        setupS.push_back(speed.referenceSeconds(s0, s1));
    std::vector<double> steps;
    for (const auto &p : passes)
        steps.insert(steps.end(), p->stepMs().begin(), p->stepMs().end());
    Emitter m;
    m.metric("wall_s", median(wallS), "s");
    m.metric("setup_s", median(setupS), "s");
    m.metric("ns_per_event", median(nsPerEvent), "ns");
    m.metric("sim_mips", median(mips), "Minst/s");
    m.metric("peak_rss_mb", peakRssMb(), "MB");
    // Diagnostics: the same times unscaled, and the scale.
    m.metric("bench.raw_wall_s", median(rawWallS), "s");
    m.metric("bench.raw_ns_per_event", median(rawNsPerEvent), "ns");
    m.metric("bench.speed_factor", speed.factor(), "ratio");

    // ---- per-layer metrics ---------------------------------------------
    auto hostMedian = [&](const char *name) {
        std::vector<double> v;
        for (const auto &p : passes) {
            const auto it = p->host().find(name);
            v.push_back(it == p->host().end() ? 0 : it->second);
        }
        return median(v);
    };
    auto value = [&](const char *name) {
        const auto it = first.values().find(name);
        return it == first.values().end() ? 0 : it->second;
    };
    const Counts &c = first.counts();
    auto n = [&](Count k) { return static_cast<double>(c[k]); };
    const double ev = n(kEvents);
    const std::pair<const char *, Count> counted[] = {
        {"sim.events", kEvents},
        {"hw.l1i_accesses", kL1i},
        {"hw.l1d_accesses", kL1d},
        {"hw.l2_accesses", kL2},
        {"hw.llc_accesses", kLlc},
        {"hw.branch_predictions", kBranchPredictions},
        {"os.syscalls", kSyscalls},
        {"os.context_switches", kContextSwitches},
        {"os.wakeups", kWakeups},
        {"os.net_messages", kNetMessages},
        {"os.pagecache_lookups", kPagecacheLookups},
        {"os.disk_requests", kDiskRequests},
        {"app.requests", kRequests},
        {"app.rpc_calls", kRpcCalls},
        {"app.rpc_retries", kRpcRetries},
        {"app.hedges", kHedges},
        {"app.hedge_wins", kHedgeWins},
        {"app.shed", kShed},
        {"app.cancelled", kCancelled},
        {"app.brownout_skipped", kBrownoutSkipped},
        {"workload.sent", kSent},
        {"workload.ok", kOk},
        {"workload.shed", kClientShed},
        {"workload.timed_out", kTimedOut},
        {"workload.sessions", kSessions},
        {"cluster.autoscaler_evals", kAutoscalerEvals},
        {"cluster.scale_ups", kScaleUps},
        {"trace.spans", kTraceSpans},
        {"profile.events", kProfileEvents},
        {"profile.l1d_accesses", kProfileL1d},
    };
    for (const auto &[name, kind] : counted)
        m.metric(name, n(kind), "count");
    for (const char *name :
         {"sim.run_s", "app.deploy_s", "cluster.topo_gen_s", "obs.export_s",
          "obs.import_s", "profile.s", "core.analyze_s", "core.generate_s",
          "core.tune_s", "clone.ingest_s", "clone.synthesize_s",
          "clone.closure_s"})
        m.metric(name, hostMedian(name), "s");
    for (const char *name :
         {"core.err_ipc_pct", "core.err_branch_pct", "core.err_l1i_pct",
          "core.err_l1d_pct", "core.err_l2_pct", "core.err_llc_pct",
          "core.heldout_err_ipc_pct", "clone.closure_rate_err_pct"})
        m.metric(name, value(name), "%");
    for (const char *name :
         {"core.tune_iterations", "core.tune_candidates", "clone.spans"})
        m.metric(name, value(name), "count");
    m.metric("sim.parallel_eff", hostMedian("sim.parallel_eff"), "ratio");
    m.metric("sim.step_ms_p50", percentile(steps, 0.50), "ms");
    m.metric("sim.step_ms_p99", percentile(steps, 0.99), "ms");
    m.metric("hw.sim_minst", n(kInstructions) / 1e6, "Minst");
    m.metric("hw.accesses_per_event",
             ratio(n(kL1i) + n(kL1d) + n(kL2) + n(kLlc), ev), "1/event");
    // Share of the modeled L1d work the simulator interpreted rather than
    // replayed from its steady-state cache.
    m.metric("hw.interp_frac", ratio(n(kL1d), n(kModeledL1d)), "ratio");
    m.metric("os.switches_per_event", ratio(n(kContextSwitches), ev),
             "1/event");
    m.metric("os.net_mb", n(kNetBytes) / 1e6, "MB");
    m.metric("app.useful_frac",
             ratio(n(kRpcOk), n(kRpcCalls) + n(kRpcRetries) + n(kHedges)),
             "ratio");
    m.metric("workload.goodput_frac", ratio(n(kOk), n(kSent)), "ratio");
    m.metric("obs.export_mb", value("obs.export_mb"), "MB");
    m.metric("obs.ingest_mb_per_s",
             ratio(value("obs.ingest_mb"), hostMedian("clone.ingest_s")),
             "MB/s");

    if (spans.enabled())
        spans.write(o.traceOut, o);

    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(first.digest()));
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"jobs\": %u, "
                "\"passes\": %zu, \"correct\": %s, \"attempted\": %u, "
                "\"failed\": %u, \"sim_digest\": \"%s\", \"metrics\": "
                "{%s}}\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.jobs, passes.size(), failed == 0 ? "true" : "false",
                attempted, failed, digest, m.text().c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "ditto_bench: %s\nusage: ditto_bench --workload W "
                 "[--seed N] [--seconds S] [--jobs J] [--size full|smoke] "
                 "[--unstepped] [--check-facade] [--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                o.workload = next();
            } else if (a == "--seed") {
                o.seed = std::stoull(next());
            } else if (a == "--seconds") {
                o.seconds = std::stod(next());
            } else if (a == "--jobs") {
                o.jobs = static_cast<unsigned>(std::stoul(next()));
            } else if (a == "--size") {
                const std::string s = next();
                if (s != "full" && s != "smoke")
                    usage("--size must be full or smoke");
                o.smoke = s == "smoke";
            } else if (a == "--unstepped") {
                o.stepped = false;
            } else if (a == "--check-facade") {
                o.checkFacade = true;
            } else if (a == "--trace-out") {
                o.traceOut = next();
            } else {
                usage(("unknown argument " + a).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.jobs == 0)
        usage("--jobs must be at least 1");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return runBench(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ditto_bench: %s\n", e.what());
        return 1;
    }
}
