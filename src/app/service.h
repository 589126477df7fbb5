/**
 * @file
 * Service runtime: deploys a ServiceSpec on a Machine and runs it.
 *
 * The runtime implements the paper's application-skeleton layer
 * (Sec. 4.3): worker threads under the configured network model
 * (I/O multiplexing with epoll, blocking thread-per-connection, or
 * polling non-blocking), background timer threads, and downstream RPC
 * connections with sync or async client behaviour. Request handlers
 * are interpreted Programs (Sec. "application body").
 *
 * Profiling hooks (ServiceProbe) expose the observable events a real
 * toolchain would see -- per-thread syscalls, call-graph enter/exit,
 * thread spawns, RPCs -- without exposing the ServiceSpec itself.
 */

#ifndef DITTO_APP_SERVICE_H_
#define DITTO_APP_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/program.h"
#include "app/resilience.h"
#include "cluster/balancer.h"
#include "hw/code.h"
#include "hw/cpu_core.h"
#include "os/kernel.h"
#include "os/machine.h"
#include "os/network.h"
#include "os/thread.h"
#include "stats/histogram.h"
#include "trace/tracer.h"

namespace ditto::app {

class ServiceInstance;
class Worker;

/**
 * Name -> replica-group resolution used while wiring downstream
 * edges. Implemented by Deployment; keeps ServiceInstance decoupled
 * from the registry's concrete container (interned dense vectors,
 * see deployment.h).
 */
class ServiceResolver
{
  public:
    virtual ~ServiceResolver() = default;

    /** Replica group of `name`; empty when not deployed. */
    virtual const std::vector<ServiceInstance *> &
    resolveService(const std::string &name) const = 0;
};

/** App-level syscall identity for profiling probes. */
enum class SysKind : std::uint8_t
{
    SocketRead,
    SocketWrite,
    EpollWait,
    Pread,
    Pwrite,
    FutexWait,
    FutexWake,
    Nanosleep,
    Clone,
};

/** Human-readable syscall name. */
std::string_view sysKindName(SysKind kind);

/** Thread roles, for the thread-model analyzer. */
enum class ThreadRole : std::uint8_t
{
    Worker,       //!< long-lived request worker
    ConnHandler,  //!< per-connection (possibly short-lived) thread
    Background,   //!< timer-triggered
};

/**
 * Profiling probe surface (the SystemTap stand-in). All callbacks
 * are no-ops by default.
 */
class ServiceProbe
{
  public:
    virtual ~ServiceProbe() = default;

    virtual void
    onSyscall(const os::Thread &t, SysKind kind, std::uint64_t bytes)
    {
        (void)t;
        (void)kind;
        (void)bytes;
    }

    virtual void
    onCallEnter(const os::Thread &t, const std::string &label)
    {
        (void)t;
        (void)label;
    }

    virtual void
    onCallExit(const os::Thread &t, const std::string &label)
    {
        (void)t;
        (void)label;
    }

    virtual void
    onThreadStart(const os::Thread &t, ThreadRole role)
    {
        (void)t;
        (void)role;
    }

    virtual void
    onRpcIssued(const os::Thread &t, std::uint32_t target,
                std::uint32_t endpoint, std::uint32_t reqBytes,
                std::uint32_t respBytes)
    {
        (void)t;
        (void)target;
        (void)endpoint;
        (void)reqBytes;
        (void)respBytes;
    }

    virtual void
    onRequestDone(std::uint32_t endpoint, sim::Time latency)
    {
        (void)endpoint;
        (void)latency;
    }

    /** File I/O with resolved offset (pread/pwrite argument probe). */
    virtual void
    onFileAccess(const os::Thread &t, std::uint64_t offset,
                 std::uint64_t bytes, bool write)
    {
        (void)t;
        (void)offset;
        (void)bytes;
        (void)write;
    }

    /**
     * Resilience outcome of one downstream RPC (ok / retried ok /
     * timeout / breaker fast-fail) or of one inbound request (shed /
     * degraded error response). For request-level outcomes `target`
     * is 0 and `endpoint` is the inbound endpoint.
     */
    virtual void
    onOutcome(const os::Thread &t, trace::OutcomeKind kind,
              std::uint32_t target, std::uint32_t endpoint,
              unsigned attempts)
    {
        (void)t;
        (void)kind;
        (void)target;
        (void)endpoint;
        (void)attempts;
    }
};

/** Aggregated runtime metrics of a service instance. */
struct ServiceStats
{
    hw::ExecStats exec;
    stats::LatencyHistogram latency;  //!< service-side request latency
    std::uint64_t requests = 0;
    std::uint64_t rxBytes = 0;
    std::uint64_t txBytes = 0;
    std::uint64_t diskReadBytes = 0;
    std::uint64_t diskWriteBytes = 0;
    // ---- resilience outcome counters --------------------------------
    std::uint64_t rpcOk = 0;              //!< calls answered in time
    std::uint64_t rpcRetries = 0;         //!< retry attempts issued
    std::uint64_t rpcTimeouts = 0;        //!< calls failed after all attempts
    std::uint64_t rpcBreakerFastFails = 0;//!< calls not sent (breaker open)
    std::uint64_t rpcStaleResponses = 0;  //!< late replies discarded by tag
    std::uint64_t requestsShed = 0;       //!< inbound requests shed
    std::uint64_t requestsDegraded = 0;   //!< responses sent with Error status
    // ---- request lifecycle (deadlines / cancellation / hedging) -----
    std::uint64_t rpcCallsStarted = 0;    //!< logical downstream calls entered
    std::uint64_t rpcCancelled = 0;       //!< calls abandoned before settling
    std::uint64_t rpcHedges = 0;          //!< hedge attempts launched
    std::uint64_t rpcHedgeWins = 0;       //!< calls won by the hedge attempt
    std::uint64_t requestsCancelled = 0;  //!< inbound requests cancelled
    // ---- overload control (adaptive limiter / budgets / brownout) ---
    std::uint64_t rpcRetriesSuppressed = 0; //!< retries denied by budget
    std::uint64_t rpcBrownoutSkipped = 0;   //!< optional calls skipped
    sim::Time measureStart = 0;

    void reset(sim::Time now);

    /** Requests per second over the window ending at `now`. */
    double qps(sim::Time now) const;

    /** Network bytes/sec (rx+tx) over the window ending at `now`. */
    double netBandwidth(sim::Time now) const;

    /** Disk bytes/sec over the window ending at `now`. */
    double diskBandwidth(sim::Time now) const;
};

/**
 * The op-program interpreter. Owns a frame stack; resumable after
 * blocking syscalls and budget exhaustion.
 */
class ProgramRunner
{
  public:
    enum class Status : std::uint8_t
    {
        Done,
        Blocked,
        Budget,
    };

    void start(const Program *prog);
    bool active() const { return !stack_.empty(); }
    void abort() { stack_.clear(); }

    /**
     * The op the innermost frame is parked on, or nullptr when idle.
     * Used by cooperative cancellation to detach a blocked worker
     * from whatever wait list (lock queue, socket) holds it.
     */
    const Op *currentOp() const;

    Status run(os::StepCtx &ctx, Worker &worker);

  private:
    struct Frame
    {
        const Program *prog = nullptr;
        std::size_t pc = 0;
        int phase = 0;
        std::uint64_t aux = 0;
        const std::string *callLabel = nullptr;
    };

    std::vector<Frame> stack_;

    Status execOp(os::StepCtx &ctx, Worker &worker, Frame &frame,
                  const Op &op);
};

/**
 * One running copy of a service on one machine.
 */
class ServiceInstance
{
  public:
    ServiceInstance(const ServiceSpec &spec, os::Machine &machine,
                    os::Network &network, trace::Tracer *tracer,
                    std::uint64_t seed, unsigned replicaIndex = 0);
    ~ServiceInstance();

    ServiceInstance(const ServiceInstance &) = delete;
    ServiceInstance &operator=(const ServiceInstance &) = delete;

    const ServiceSpec &spec() const { return spec_; }
    const std::string &name() const { return spec_.name; }
    os::Machine &machine() { return machine_; }
    os::Network &network() { return network_; }
    trace::Tracer *tracer() { return tracer_; }
    const hw::CodeImage &image() const { return *image_; }

    /** Position of this instance within its replica group. */
    unsigned replicaIndex() const { return replicaIndex_; }

    /**
     * Unique instance label for metrics: the service name for replica
     * 0 (canonical -- unreplicated deployments keep their series
     * names), "name@k" for further replicas.
     */
    std::string instanceLabel() const;

    /**
     * Resolve downstream service replica groups and open per-worker
     * connections to every replica. Must be called once after all
     * services are constructed (Deployment::wireAll).
     * @throws std::runtime_error naming caller and downstream when a
     *         downstream reference does not resolve.
     */
    void wire(const ServiceResolver &resolver);

    /**
     * Dense id of this service's replica group within its Deployment
     * (assigned at deploy time); kNoServiceId for instances
     * constructed outside a Deployment.
     */
    static constexpr std::uint32_t kNoServiceId = 0xffffffffu;
    std::uint32_t serviceId() const { return serviceId_; }
    void setServiceId(std::uint32_t id) { serviceId_ = id; }

    /**
     * Open a new inbound connection; returns the server-side socket
     * (the caller connects it to its own endpoint).
     */
    os::Socket *openConnection();

    ServiceStats &stats() { return stats_; }

    /** Reset measurement counters (start of a measured window). */
    void beginMeasure();

    /**
     * Crash / restore hook (fault injection). While down, inbound
     * messages are dropped by the network and workers idle; crashing
     * aborts in-flight requests (their clients see a timeout).
     * Restart is warm: files, caches, and queued-but-undelivered
     * state survive.
     */
    void setDown(bool down);
    bool down() const { return down_; }

    /**
     * Circuit breaker guarding downstream `target`, or nullptr when
     * the spec's breaker policy is disabled.
     */
    CircuitBreaker *breaker(std::uint32_t target);

    /**
     * Adaptive overload controller, or nullptr when the spec's
     * OverloadSpec enables nothing.
     */
    OverloadController *overload() { return overload_.get(); }
    const OverloadController *overload() const
    {
        return overload_.get();
    }

    /** Server-side retry budget (disabled unless budgetRatio > 0). */
    RetryBudget &retryBudget() { return retryBudget_; }
    const RetryBudget &retryBudget() const { return retryBudget_; }

    /**
     * Brownout gate: skip optional downstream edges while the
     * limiter's last window ran congested.
     */
    bool
    brownoutActive() const
    {
        return overload_ && spec_.resilience.overload.brownout &&
            overload_->brownoutActive();
    }

    /**
     * Record an outcome into stats, probe, and tracer. `cause` (may
     * be empty) says why work was abandoned for the cancellation
     * outcome kinds and rides along on the traced event.
     */
    void noteOutcome(os::Thread &t, trace::OutcomeKind kind,
                     std::uint32_t target, std::uint32_t endpoint,
                     unsigned attempts, std::uint64_t traceId,
                     const char *cause = "");

    void setProbe(ServiceProbe *probe) { probe_ = probe; }
    ServiceProbe *probe() const { return probe_; }

    // ---- runtime internals used by Worker --------------------------------

    struct LockState
    {
        bool held = false;
        os::WaitQueue *queue = nullptr;
    };

    LockState &lock(std::uint32_t ref) { return locks_[ref]; }
    std::uint32_t fileId(std::uint32_t ref) const
    {
        return fileIds_[ref];
    }
    std::uint64_t fileSize(std::uint32_t ref) const;

    /** Canonical (first) replica of downstream edge `idx`. */
    ServiceInstance *downstream(std::uint32_t idx)
    {
        return downstreamGroups_[idx].empty()
            ? nullptr
            : downstreamGroups_[idx].front();
    }

    /** All replicas of downstream edge `idx`. */
    const std::vector<ServiceInstance *> &
    downstreamGroup(std::uint32_t idx) const
    {
        return downstreamGroups_[idx];
    }

    /**
     * Select the replica for one RPC attempt on edge `target` (see
     * cluster::EdgeBalancer::pick). `key` is the request key used by
     * consistent hashing. Crashed replicas and replicas on crashed
     * machines are excluded while any live one remains; a region pin
     * on the edge additionally excludes replicas outside the pinned
     * region, and the PreferLocal policy keeps picks in this
     * machine's own region while one of its replicas is usable.
     */
    std::size_t pickReplica(std::uint32_t target, std::uint64_t key);

    /**
     * Like pickReplica but excluding replica `exclude` (hedged
     * requests must land on a *different* replica). Falls back to
     * `exclude` when it is the only usable choice; the caller skips
     * the hedge in that case. Under PreferLocal a hedge crosses
     * regions only when no local replica is alive at all: while the
     * sole live local replica is the primary, the fallback-to-
     * `exclude` path applies and the hedge is skipped.
     */
    std::size_t pickReplicaExcluding(std::uint32_t target,
                                     std::uint64_t key,
                                     std::size_t exclude);

    /** Sentinel: edge has no region pin. */
    static constexpr std::uint32_t kNoRegionPin = 0xffffffffu;

    /**
     * Pin downstream edge `target` to one region: picks only consider
     * replicas whose machine lives there (Deployment::wireAll
     * installs these from BalancingSpec::pinRegion).
     */
    void
    setEdgeRegionPin(std::uint32_t target, std::uint32_t regionId)
    {
        edgeRegionPins_[target] = regionId;
    }

    /** Balancer of downstream edge `target` (attempt accounting). */
    cluster::EdgeBalancer &balancer(std::uint32_t target)
    {
        return balancers_[target];
    }

    /**
     * A replica was added to downstream group `target` mid-run
     * (autoscaler scale-up): open one connection per worker and grow
     * the edge balancer. Requires wire() to have run.
     */
    void addDownstreamReplica(std::uint32_t target,
                              ServiceInstance &replica);

    /** Retire / reactivate a downstream replica in the balancer. */
    void setDownstreamReplicaActive(std::uint32_t target,
                                    std::size_t replica, bool active);

    /** Pending inbound requests summed over this instance's workers. */
    std::size_t inboundQueueDepth() const;

    /** Requests currently executing on this instance's workers. */
    std::size_t activeRequests() const;

    std::uint64_t nextTag() { return nextTag_++; }

    sim::Rng &rng() { return rng_; }

  private:
    friend class Worker;

    const ServiceSpec spec_;
    os::Machine &machine_;
    os::Network &network_;
    trace::Tracer *tracer_;
    std::unique_ptr<hw::CodeImage> image_;
    ServiceStats stats_;
    ServiceProbe *probe_ = nullptr;
    sim::Rng rng_;
    std::uint64_t seed_;
    unsigned replicaIndex_;
    std::uint32_t serviceId_ = kNoServiceId;

    std::vector<Worker *> workers_;       //!< owned by the scheduler
    std::vector<std::uint32_t> fileIds_;
    std::vector<LockState> locks_;
    std::vector<std::vector<ServiceInstance *>> downstreamGroups_;
    std::vector<cluster::EdgeBalancer> balancers_;
    /** Per-edge region pin (kNoRegionPin when unpinned). */
    std::vector<std::uint32_t> edgeRegionPins_;
    std::vector<CircuitBreaker> breakers_;
    std::unique_ptr<OverloadController> overload_;
    RetryBudget retryBudget_;
    unsigned nextWorkerForConn_ = 0;
    unsigned nextThreadSlot_ = 0;
    std::uint64_t nextTag_ = 1;
    bool wired_ = false;
    bool down_ = false;

    Worker *spawnWorker(ThreadRole role, const std::string &name,
                        const Program *background, sim::Time period);
    void openDownstreamConns(Worker &w);
    os::Socket *connectTo(ServiceInstance &target);
    /** Inbound MsgKind::Cancel delivery (Socket::onCancel hook). */
    void handleCancel(Worker &w, os::Socket &sock,
                      const os::Message &msg);
};

/**
 * A service thread: epoll worker, per-connection handler, or
 * background timer thread; also the execution context handed to the
 * ProgramRunner.
 */
class Worker : public os::Thread
{
  public:
    Worker(ServiceInstance &service, ThreadRole role, std::string name,
           unsigned threadSlot, const Program *background,
           sim::Time period, std::uint64_t seed);

    os::StepResult step(os::StepCtx &ctx) override;

    ThreadRole role() const { return role_; }
    ServiceInstance &service() { return service_; }

    /** Attach an inbound connection socket. */
    void addConnection(os::Socket *sock);

    /** Connection socket to replica `replica` of RPC target `idx`. */
    os::Socket *downConn(std::uint32_t idx, std::size_t replica)
    {
        return downConns_[idx][replica];
    }
    void setDownConns(std::vector<std::vector<os::Socket *>> conns)
    {
        downConns_ = std::move(conns);
    }
    /** Append a connection for a freshly added replica of `idx`. */
    void addDownConn(std::uint32_t idx, os::Socket *sock)
    {
        downConns_[idx].push_back(sock);
    }

    /** Current wall time including cycles consumed this slice. */
    sim::Time now(const os::StepCtx &ctx) const;

    // ---- hooks used by ProgramRunner -------------------------------------
    void probeSyscall(SysKind kind, std::uint64_t bytes);
    void accountDiskRead(std::uint64_t bytes);
    void accountDiskWrite(std::uint64_t bytes);

    struct CurrentRequest
    {
        os::Socket *sock = nullptr;
        os::Message msg;
        sim::Time start = 0;
        std::uint64_t serverSpan = 0;
        bool active = false;
        /** A downstream call failed; respond with Error status. */
        bool degraded = false;
    };

    CurrentRequest &currentRequest() { return req_; }

    /**
     * One downstream attempt: the sync call's primary or hedge, or one
     * call of an async fanout. Open from its send until its reply is
     * accepted or it is abandoned; an open attempt holds a balancer
     * slot on (target, replica) and may park this worker on `conn`.
     */
    struct Attempt
    {
        std::uint32_t target = 0;
        std::uint32_t endpoint = 0;
        std::size_t replica = 0;
        os::Socket *conn = nullptr;
        std::uint64_t tag = 0;  //!< request tag its reply carries
        bool open = false;
    };

    /**
     * Per-worker state of the in-flight Rpc op (one Rpc op runs at a
     * time per worker, so a single slot suffices): the call-level
     * attempt counter, backoff and timers, plus the attempts in flight.
     */
    struct RpcState
    {
        unsigned attempt = 0;      //!< attempts made for the sync call
        sim::EventId timer = 0;    //!< pending deadline/backoff event
        bool timerFired = false;
        bool inBackoff = false;
        /** Absolute deadline forwarded with the sync call; 0 none. */
        sim::Time sendDeadline = 0;
        // ---- hedging -------------------------------------------------
        sim::EventId hedgeTimer = 0;
        bool hedgeFired = false;
        bool hedgeLaunched = false;  //!< sticky per call: one hedge max
        /**
         * Sync: {primary, hedge}, sized at the call's first send.
         * Async: one per fanout call, by call index.
         */
        std::vector<Attempt> attempts;

        /**
         * Return to the default-constructed state while keeping the
         * capacity of `attempts`: one RpcState is recycled per RPC
         * per worker.
         */
        void
        reset()
        {
            std::vector<Attempt> keep = std::move(attempts);
            keep.clear();
            *this = RpcState{};
            attempts = std::move(keep);
        }
    };

    RpcState &rpcState() { return rpcState_; }

    /** Arm the deadline/backoff timer `delay` from now. */
    void armRpcTimer(const os::StepCtx &ctx, sim::Time delay);
    void cancelRpcTimer();

    /** Arm / cancel the hedge-launch timer. */
    void armHedgeTimer(const os::StepCtx &ctx, sim::Time delay);
    void cancelHedgeTimer();

    /** Abort the in-flight request (service crash). */
    void abortRequest();

    /**
     * Cooperative cancellation of the request identified by (sock,
     * tag) if it is the one this worker is executing. Marks the
     * request cancel-pending, detaches the worker from whatever wait
     * list blocks it, and wakes it; the worker settles on its next
     * slice (chasing in-flight downstream attempts with cancels).
     */
    void requestCancel(os::Socket &sock, std::uint64_t tag);

    // ---- per-attempt steps of the Rpc op, shared by both client
    // models and by the timeout, crash and upstream-cancel paths -----

    /** End-to-end budget of downstream calls (absolute); 0 none. */
    sim::Time hopBudget() const;

    /** Deadline to forward with an attempt sent now; 0 none. */
    sim::Time forwardDeadline(const os::StepCtx &ctx,
                              sim::Time budget) const;

    /** Arm the attempt deadline: rpcDeadline capped by `budget`. */
    void armAttemptTimer(const os::StepCtx &ctx, sim::Time budget);

    /**
     * Admit one call before an attempt is sent: on a fresh call
     * (`attempts` == 0) count it and skip it if brownout sheds its
     * optional edge; then fail fast when `budgetDead`, then check the
     * breaker. A refused call is settled here, recording `attempts`
     * (`breakerAttempts` for a breaker refusal).
     * @retval true the attempt may be sent.
     */
    bool admitCall(const os::StepCtx &ctx, const RpcCallSpec &call,
                   bool budgetDead, unsigned attempts,
                   unsigned breakerAttempts);

    /**
     * Send an attempt of `call` to `replica`: take a balancer slot,
     * write the request with the forwarded `deadline`, open `a`.
     */
    void sendAttempt(os::StepCtx &ctx, Attempt &a,
                     const RpcCallSpec &call, std::size_t replica,
                     sim::Time deadline);

    /** The open attempt whose reply carries `tag`, or nullptr. */
    Attempt *matchReply(std::uint64_t tag);

    /** Take `resp` as `a`'s reply: release its slot and close it. */
    void acceptReply(Attempt &a, const os::Message &resp);

    /** Account a reply no open attempt is waiting for. */
    void dropStaleReply(const os::Message &resp);

    /**
     * Give up on open attempt `a`: leave its wait list, release its
     * balancer slot and, when `ctx` is non-null and the spec opts
     * into cancellation, chase it with MsgKind::Cancel. `ctx` is null
     * on the crash path (a crashed process sends nothing).
     */
    void abandonAttempt(os::StepCtx *ctx, Attempt &a);

    /**
     * Settle a call answered through attempt `a`: breaker success,
     * outcome `kind` with `attempts`, and the reply's bytes/status.
     */
    void settleOk(const Attempt &a, trace::OutcomeKind kind,
                  unsigned attempts, const os::Message &resp);

    /** Send a MsgKind::Cancel chasing `tag` down `conn`. */
    void sendCancelMsg(os::StepCtx &ctx, os::Socket *conn,
                       std::uint64_t tag, std::uint64_t traceId);

    /** Messages queued on this worker's inbound connections. */
    std::size_t inboundQueueDepth() const;

    /** Whether a request is executing on this worker right now. */
    bool requestActive() const { return req_.active; }

    /** Lock-hold tracking so aborted requests can't strand a lock. */
    void noteLockAcquired(std::uint32_t ref)
    {
        heldLocks_.push_back(ref);
    }
    void noteLockReleased(std::uint32_t ref);

  private:
    ServiceInstance &service_;
    ThreadRole role_;
    const Program *background_;
    sim::Time period_;
    ProgramRunner runner_;
    std::deque<os::Socket *> readyList_;
    /** epoll_wait's result buffer, reused across calls. */
    std::vector<os::Socket *> readyScratch_;
    std::vector<os::Socket *> conns_;       //!< inbound connections
    /** Outbound RPC conns, [target edge][replica]. */
    std::vector<std::vector<os::Socket *>> downConns_;
    os::Epoll *epoll_ = nullptr;
    CurrentRequest req_;
    RpcState rpcState_;
    std::vector<std::uint32_t> heldLocks_;
    bool started_ = false;
    bool cancelPending_ = false;
    int bgPhase_ = 0;
    unsigned pollCursor_ = 0;

    os::StepResult stepServer(os::StepCtx &ctx);
    os::StepResult stepBackground(os::StepCtx &ctx);
    bool fetchNextRequest(os::StepCtx &ctx, bool &blocked);
    void beginRequest(os::StepCtx &ctx, os::Socket *sock,
                      os::Message msg);
    void finishRequest(os::StepCtx &ctx);
    void shedRequest(os::StepCtx &ctx, os::Socket *sock,
                     os::Message msg, const char *cause = "");
    void finishCancelledRequest(os::StepCtx &ctx);
    /**
     * Settle every unsettled downstream call of the current request
     * as RpcCancelled, abandoning its open attempts (see
     * abandonAttempt for `ctx`).
     */
    void settleOpenCalls(os::StepCtx *ctx, const char *cause);
    void detachFromBlockers();
    void releaseHeldLocks();
};

} // namespace ditto::app

#endif // DITTO_APP_SERVICE_H_
