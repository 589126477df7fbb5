#include "app/service.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ditto::app {

namespace {

/** Private-copy slots reserved per service image. */
constexpr unsigned kServiceThreadSlots = 64;

/** Cycles for an uncontended user-space lock acquire/release. */
constexpr double kUserLockCycles = 40;

} // namespace

std::string_view
sysKindName(SysKind kind)
{
    switch (kind) {
      case SysKind::SocketRead: return "read";
      case SysKind::SocketWrite: return "write";
      case SysKind::EpollWait: return "epoll_wait";
      case SysKind::Pread: return "pread";
      case SysKind::Pwrite: return "pwrite";
      case SysKind::FutexWait: return "futex_wait";
      case SysKind::FutexWake: return "futex_wake";
      case SysKind::Nanosleep: return "nanosleep";
      case SysKind::Clone: return "clone";
    }
    return "?";
}

void
ServiceStats::reset(sim::Time now)
{
    exec = hw::ExecStats{};
    latency.reset();
    requests = 0;
    rxBytes = 0;
    txBytes = 0;
    diskReadBytes = 0;
    diskWriteBytes = 0;
    rpcOk = 0;
    rpcRetries = 0;
    rpcTimeouts = 0;
    rpcBreakerFastFails = 0;
    rpcStaleResponses = 0;
    requestsShed = 0;
    requestsDegraded = 0;
    rpcCallsStarted = 0;
    rpcCancelled = 0;
    rpcHedges = 0;
    rpcHedgeWins = 0;
    requestsCancelled = 0;
    rpcRetriesSuppressed = 0;
    rpcBrownoutSkipped = 0;
    measureStart = now;
}

double
ServiceStats::qps(sim::Time now) const
{
    const double secs = sim::toSeconds(now - measureStart);
    return secs > 0 ? static_cast<double>(requests) / secs : 0.0;
}

double
ServiceStats::netBandwidth(sim::Time now) const
{
    const double secs = sim::toSeconds(now - measureStart);
    return secs > 0 ?
        static_cast<double>(rxBytes + txBytes) / secs : 0.0;
}

double
ServiceStats::diskBandwidth(sim::Time now) const
{
    const double secs = sim::toSeconds(now - measureStart);
    return secs > 0 ?
        static_cast<double>(diskReadBytes + diskWriteBytes) / secs : 0.0;
}

// ---------------------------------------------------------------------------
// ProgramRunner
// ---------------------------------------------------------------------------

void
ProgramRunner::start(const Program *prog)
{
    stack_.clear();
    stack_.push_back(Frame{prog, 0, 0, 0, nullptr});
}

const Op *
ProgramRunner::currentOp() const
{
    if (stack_.empty())
        return nullptr;
    const Frame &f = stack_.back();
    if (f.pc >= f.prog->ops.size())
        return nullptr;
    return &f.prog->ops[f.pc];
}

ProgramRunner::Status
ProgramRunner::run(os::StepCtx &ctx, Worker &worker)
{
    while (!stack_.empty()) {
        if (ctx.overBudget())
            return Status::Budget;

        Frame &frame = stack_.back();
        if (frame.pc >= frame.prog->ops.size()) {
            if (frame.callLabel && worker.service().probe()) {
                worker.service().probe()->onCallExit(worker,
                                                     *frame.callLabel);
            }
            stack_.pop_back();
            continue;
        }

        const Op &op = frame.prog->ops[frame.pc];
        const Status st = execOp(ctx, worker, frame, op);
        if (st != Status::Done)
            return st;
    }
    return Status::Done;
}

ProgramRunner::Status
ProgramRunner::execOp(os::StepCtx &ctx, Worker &worker, Frame &frame,
                      const Op &op)
{
    ServiceInstance &service = worker.service();
    os::Kernel &kernel = ctx.kernel;
    sim::Rng &rng = service.rng();

    switch (op.kind) {
      case OpKind::Compute: {
        const std::uint64_t iters = op.itersMin >= op.itersMax
            ? op.itersMin
            : static_cast<std::uint64_t>(rng.uniformInt(
                  static_cast<std::int64_t>(op.itersMin),
                  static_cast<std::int64_t>(op.itersMax)));
        hw::ExecStats scratch;
        const double cycles = ctx.core.run(
            service.image(), op.block, iters, worker.execContext(),
            scratch);
        ctx.cyclesUsed += cycles;
        if (worker.statsSink())
            worker.statsSink()->add(scratch);
        frame.pc++;
        return Status::Done;
      }

      case OpKind::FileRead: {
        if (frame.phase == 0) {
            const std::uint64_t bytes = op.bytesMin >= op.bytesMax
                ? op.bytesMin
                : static_cast<std::uint64_t>(rng.uniformInt(
                      static_cast<std::int64_t>(op.bytesMin),
                      static_cast<std::int64_t>(op.bytesMax)));
            const std::uint64_t fileSize =
                service.fileSize(op.fileRef);
            const std::uint64_t maxOff =
                fileSize > bytes ? fileSize - bytes : 0;
            std::uint64_t offset = rng.uniformInt(maxOff + 1);
            offset &= ~(os::kPageBytes - 1);
            worker.probeSyscall(SysKind::Pread, bytes);
            if (service.probe()) {
                service.probe()->onFileAccess(worker, offset, bytes,
                                              false);
            }
            std::uint64_t diskBytes = 0;
            const os::SysResult res = kernel.sysPread(
                ctx, worker, service.fileId(op.fileRef), offset,
                bytes, diskBytes);
            worker.accountDiskRead(diskBytes);
            if (res == os::SysResult::Ok) {
                frame.pc++;
                return Status::Done;
            }
            frame.phase = 1;
            frame.aux = bytes;
            return Status::Blocked;
        }
        kernel.sysPreadFinish(ctx, worker, frame.aux);
        frame.phase = 0;
        frame.pc++;
        return Status::Done;
      }

      case OpKind::FileWrite: {
        const std::uint64_t bytes = op.bytesMin >= op.bytesMax
            ? op.bytesMin
            : static_cast<std::uint64_t>(rng.uniformInt(
                  static_cast<std::int64_t>(op.bytesMin),
                  static_cast<std::int64_t>(op.bytesMax)));
        const std::uint64_t fileSize = service.fileSize(op.fileRef);
        const std::uint64_t maxOff =
            fileSize > bytes ? fileSize - bytes : 0;
        const std::uint64_t offset = rng.uniformInt(maxOff + 1);
        worker.probeSyscall(SysKind::Pwrite, bytes);
        if (service.probe())
            service.probe()->onFileAccess(worker, offset, bytes, true);
        kernel.sysPwrite(ctx, worker, service.fileId(op.fileRef),
                         offset, bytes);
        worker.accountDiskWrite(bytes);
        frame.pc++;
        return Status::Done;
      }

      case OpKind::Rpc: {
        const bool async =
            service.spec().clientModel == ClientModel::Async;
        const ResilienceSpec &res = service.spec().resilience;
        const std::size_t n = op.rpcs.size();
        if (n == 0) {
            frame.pc++;
            return Status::Done;
        }

        Worker::RpcState &rs = worker.rpcState();
        const std::uint64_t traceId =
            worker.currentRequest().msg.traceId;
        auto each_open = [&rs](auto &&fn) {
            for (Worker::Attempt &a : rs.attempts) {
                if (a.open)
                    fn(a);
            }
        };

        if (!async) {
            // Sync client: send call k, await its response, repeat.
            // With resilience enabled each call runs an attempt loop:
            // arm a deadline, and on expiry back off and resend (the
            // response is matched by tag, so a late first reply is
            // discarded rather than credited to the retry). Each
            // attempt picks a replica through the edge balancer, so a
            // retry can land on -- and route around a crash via -- a
            // different replica than the attempt it replaces.
            while (true) {
                const std::size_t callIdx =
                    static_cast<std::size_t>(frame.phase) / 2;
                if (callIdx >= n) {
                    frame.phase = 0;
                    frame.pc++;
                    return Status::Done;
                }
                const RpcCallSpec &call = op.rpcs[callIdx];
                CircuitBreaker *cb = service.breaker(call.target);
                if (frame.phase % 2 == 0) {
                    const sim::Time budget = worker.hopBudget();
                    if (!worker.admitCall(
                            ctx, call,
                            budget != 0 && budget <= worker.now(ctx),
                            rs.attempt, rs.attempt)) {
                        rs.reset();
                        frame.phase += 2;  // skip the call
                        continue;
                    }
                    rs.attempt++;
                    rs.attempts.resize(2);  // {primary, hedge}
                    rs.sendDeadline = worker.forwardDeadline(ctx, budget);
                    worker.sendAttempt(
                        ctx, rs.attempts[0], call,
                        service.pickReplica(call.target, traceId),
                        rs.sendDeadline);
                    worker.armAttemptTimer(ctx, budget);
                    if (res.hedge.enabled && rs.attempt == 1 &&
                        service.downstreamGroup(call.target).size() >
                            1) {
                        worker.armHedgeTimer(ctx, res.hedge.delay);
                    }
                    frame.phase++;
                } else if (rs.inBackoff) {
                    if (!rs.timerFired)
                        return Status::Blocked;  // spurious wake
                    rs.inBackoff = false;
                    rs.timerFired = false;
                    frame.phase--;  // backoff over: resend
                } else {
                    Worker::Attempt &primary = rs.attempts[0];
                    Worker::Attempt &hedge = rs.attempts[1];
                    os::Message resp;
                    bool got = false;
                    for (Worker::Attempt &a : rs.attempts) {
                        if (a.open &&
                            kernel.sysSocketTryRead(ctx, worker, *a.conn,
                                                    resp) ==
                                os::SysResult::Ok) {
                            got = true;
                            break;
                        }
                    }
                    if (got) {
                        Worker::Attempt *won = worker.matchReply(resp.tag);
                        if (!won) {
                            worker.dropStaleReply(resp);
                            continue;
                        }
                        worker.acceptReply(*won, resp);
                        worker.cancelRpcTimer();
                        worker.cancelHedgeTimer();
                        // First response wins; the hedge race's loser
                        // is abandoned. Its late reply, if any, dies
                        // as a stale one.
                        each_open([&](Worker::Attempt &a) {
                            worker.abandonAttempt(&ctx, a);
                        });
                        worker.settleOk(
                            *won,
                            won == &hedge ? trace::OutcomeKind::RpcHedgeWon
                                : rs.attempt > 1
                                ? trace::OutcomeKind::RpcRetriedOk
                                : trace::OutcomeKind::RpcOk,
                            rs.attempt, resp);
                        rs.reset();
                        frame.phase++;
                    } else if (rs.timerFired) {
                        // Attempt deadline expired with no response.
                        rs.timerFired = false;
                        worker.cancelHedgeTimer();
                        each_open([&](Worker::Attempt &a) {
                            worker.abandonAttempt(&ctx, a);
                        });
                        // One failure per call, hedged or not: hedges
                        // must never double-count against the breaker.
                        if (cb)
                            cb->onFailure(worker.now(ctx));
                        bool retryAllowed =
                            rs.attempt < res.retry.maxAttempts;
                        const char *giveUpCause = "";
                        if (retryAllowed &&
                            !service.retryBudget().allowWithdraw()) {
                            // Retry budget exhausted: the attempt
                            // settles as the timeout it is instead of
                            // feeding a retry storm.
                            retryAllowed = false;
                            giveUpCause = "retry_budget";
                            service.stats().rpcRetriesSuppressed++;
                        }
                        if (retryAllowed) {
                            service.stats().rpcRetries++;
                            rs.inBackoff = true;
                            worker.armRpcTimer(
                                ctx, computeBackoff(res.retry,
                                                    rs.attempt,
                                                    service.rng()));
                            return Status::Blocked;
                        }
                        service.noteOutcome(
                            worker, trace::OutcomeKind::RpcTimeout,
                            call.target, call.endpoint, rs.attempt,
                            traceId, giveUpCause);
                        worker.currentRequest().degraded = true;
                        rs.reset();
                        frame.phase++;  // give up on this call
                    } else if (rs.hedgeFired && !rs.hedgeLaunched) {
                        // Hedge threshold passed: launch the second
                        // attempt on a different replica. When no
                        // other replica is usable, skip the hedge
                        // (hedgeLaunched stays set so it won't refire
                        // for this call).
                        rs.hedgeFired = false;
                        rs.hedgeLaunched = true;
                        const std::size_t other =
                            service.pickReplicaExcluding(
                                call.target, traceId, primary.replica);
                        if (other != primary.replica) {
                            worker.sendAttempt(ctx, hedge, call, other,
                                               rs.sendDeadline);
                            service.stats().rpcHedges++;
                        }
                    } else {
                        each_open([&](Worker::Attempt &a) {
                            a.conn->addWaiter(&worker);
                        });
                        return Status::Blocked;
                    }
                }
                if (ctx.overBudget() &&
                    static_cast<std::size_t>(frame.phase) / 2 < n) {
                    return Status::Budget;
                }
            }
        }

        // Async client: fire the whole fanout, then collect. Each
        // call picks its replica independently, so one fanout can
        // spread across the replicas of a single downstream group.
        if (frame.phase == 0) {
            rs.reset();
            rs.attempts.assign(n, Worker::Attempt{});
            const sim::Time budget = worker.hopBudget();
            const bool budgetDead =
                budget != 0 && budget <= worker.now(ctx);
            bool sent = false;
            for (std::size_t i = 0; i < n; ++i) {
                const RpcCallSpec &call = op.rpcs[i];
                if (!worker.admitCall(ctx, call, budgetDead, 0, 1))
                    continue;
                worker.sendAttempt(
                    ctx, rs.attempts[i], call,
                    service.pickReplica(call.target, traceId),
                    worker.forwardDeadline(ctx, budget));
                sent = true;
            }
            frame.phase = 1;
            if (sent)
                worker.armAttemptTimer(ctx, budget);
        }
        // Collect phase: drain whatever is ready. Calls to the same
        // target share one connection, so match each reply against
        // every open attempt; unmatched replies are stale leftovers of
        // an earlier timed-out fanout.
        each_open([&](Worker::Attempt &leg) {
            leg.conn->removeWaiter(&worker);
            os::Message resp;
            while (leg.open &&
                   kernel.sysSocketTryRead(ctx, worker, *leg.conn,
                                           resp) == os::SysResult::Ok) {
                Worker::Attempt *match = worker.matchReply(resp.tag);
                if (!match) {
                    worker.dropStaleReply(resp);
                    continue;
                }
                worker.acceptReply(*match, resp);
                worker.settleOk(*match, trace::OutcomeKind::RpcOk, 1,
                                resp);
            }
        });
        if (std::none_of(rs.attempts.begin(), rs.attempts.end(),
                         [](const Worker::Attempt &a) { return a.open; })) {
            worker.cancelRpcTimer();
            rs.reset();
            frame.phase = 0;
            frame.pc++;
            return Status::Done;
        }
        if (rs.timerFired) {
            // Fanout deadline: abandon every still-open call.
            each_open([&](Worker::Attempt &leg) {
                worker.abandonAttempt(&ctx, leg);
                if (CircuitBreaker *cb = service.breaker(leg.target))
                    cb->onFailure(worker.now(ctx));
                service.noteOutcome(
                    worker, trace::OutcomeKind::RpcTimeout, leg.target,
                    leg.endpoint, 1, traceId);
                worker.currentRequest().degraded = true;
            });
            rs.reset();
            frame.phase = 0;
            frame.pc++;
            return Status::Done;
        }
        // Park on every still-open call's connection.
        each_open([&](Worker::Attempt &leg) {
            leg.conn->addWaiter(&worker);
        });
        return Status::Blocked;
      }

      case OpKind::Lock: {
        ServiceInstance::LockState &lock = service.lock(op.lockRef);
        if (!lock.held) {
            lock.held = true;
            worker.noteLockAcquired(op.lockRef);
            ctx.cyclesUsed += kUserLockCycles;
            frame.pc++;
            return Status::Done;
        }
        worker.probeSyscall(SysKind::FutexWait, 0);
        kernel.sysFutexWait(ctx, worker, *lock.queue);
        return Status::Blocked;  // retry the acquire after wakeup
      }

      case OpKind::Unlock: {
        ServiceInstance::LockState &lock = service.lock(op.lockRef);
        worker.noteLockReleased(op.lockRef);
        ctx.cyclesUsed += kUserLockCycles;
        if (lock.queue->hasWaiters()) {
            worker.probeSyscall(SysKind::FutexWake, 0);
            kernel.sysFutexWake(ctx, worker, *lock.queue, 0);
        }
        // The slice is computed ahead of simulated time: release the
        // lock (and wake a waiter) when the unlock logically executes,
        // so concurrent threads actually contend for the section.
        ServiceInstance::LockState *lockPtr = &lock;
        service.machine().events().scheduleAfter(
            kernel.sliceOffset(ctx), [lockPtr] {
                lockPtr->held = false;
                lockPtr->queue->wake(1);
            });
        frame.pc++;
        return Status::Done;
      }

      case OpKind::Sleep: {
        if (frame.phase == 0) {
            worker.probeSyscall(SysKind::Nanosleep, 0);
            kernel.sysNanosleep(ctx, worker, op.duration);
            frame.phase = 1;
            return Status::Blocked;
        }
        frame.phase = 0;
        frame.pc++;
        return Status::Done;
      }

      case OpKind::Choice: {
        double total = 0;
        for (double p : op.probs)
            total += p;
        double roll = rng.uniform() * (total > 0 ? total : 1.0);
        std::size_t arm = 0;
        for (; arm + 1 < op.probs.size(); ++arm) {
            if (roll < op.probs[arm])
                break;
            roll -= op.probs[arm];
        }
        frame.pc++;
        if (arm < op.subs.size() && !op.subs[arm].empty())
            stack_.push_back(Frame{&op.subs[arm], 0, 0, 0, nullptr});
        return Status::Done;
      }

      case OpKind::Call: {
        if (service.probe())
            service.probe()->onCallEnter(worker, op.label);
        frame.pc++;
        stack_.push_back(Frame{&op.subs[0], 0, 0, 0, &op.label});
        return Status::Done;
      }
    }
    frame.pc++;
    return Status::Done;
}

// ---------------------------------------------------------------------------
// ServiceInstance
// ---------------------------------------------------------------------------

ServiceInstance::ServiceInstance(const ServiceSpec &spec,
                                 os::Machine &machine,
                                 os::Network &network,
                                 trace::Tracer *tracer,
                                 std::uint64_t seed,
                                 unsigned replicaIndex)
    : spec_(spec), machine_(machine), network_(network),
      tracer_(tracer), rng_(seed ^ 0x5e41ceull), seed_(seed),
      replicaIndex_(replicaIndex)
{
    const os::Machine::AddressRegion region = machine_.allocRegion();
    image_ = std::make_unique<hw::CodeImage>(
        region.textBase, region.dataBase, kServiceThreadSlots);
    for (const hw::CodeBlock &block : spec_.blocks)
        image_->addBlock(block);

    // Replicas get distinct backing files even when co-located on one
    // machine; replica 0 keeps the original names.
    const std::string filePrefix = instanceLabel();
    for (std::size_t i = 0; i < spec_.fileBytes.size(); ++i) {
        fileIds_.push_back(machine_.vfs().create(
            filePrefix + ".file" + std::to_string(i),
            spec_.fileBytes[i]));
        if (spec_.filePrewarmFraction > 0) {
            const std::uint64_t pages =
                spec_.fileBytes[i] / os::kPageBytes;
            const auto warm = static_cast<std::uint64_t>(
                static_cast<double>(pages) * spec_.filePrewarmFraction);
            for (std::uint64_t p = 0; p < warm; ++p) {
                machine_.pageCache().access(
                    fileIds_.back(), p * os::kPageBytes, 1);
            }
        }
    }

    locks_.resize(spec_.locks);
    for (LockState &lock : locks_)
        lock.queue = machine_.createWaitQueue();

    if (spec_.resilience.overload.any()) {
        overload_ = std::make_unique<OverloadController>(
            spec_.resilience.overload);
    }
    if (spec_.resilience.retry.budgetRatio > 0) {
        retryBudget_.configure(spec_.resilience.retry.budgetRatio,
                               spec_.resilience.retry.budgetInitial,
                               spec_.resilience.retry.budgetCap);
    }

    // Long-lived worker pool (unless connections spawn threads).
    if (!spec_.threads.threadPerConnection) {
        for (unsigned w = 0; w < std::max(1u, spec_.threads.workers);
             ++w) {
            spawnWorker(ThreadRole::Worker,
                        filePrefix + ".worker" + std::to_string(w),
                        nullptr, 0);
        }
    }
    for (const BackgroundSpec &bg : spec_.background) {
        spawnWorker(ThreadRole::Background,
                    filePrefix + "." + bg.name, &bg.body, bg.period);
    }
}

std::string
ServiceInstance::instanceLabel() const
{
    if (replicaIndex_ == 0)
        return spec_.name;
    return spec_.name + "@" + std::to_string(replicaIndex_);
}

ServiceInstance::~ServiceInstance() = default;

std::uint64_t
ServiceInstance::fileSize(std::uint32_t ref) const
{
    return spec_.fileBytes[ref];
}

Worker *
ServiceInstance::spawnWorker(ThreadRole role, const std::string &name,
                             const Program *background,
                             sim::Time period)
{
    auto worker = std::make_unique<Worker>(
        *this, role, name, nextThreadSlot_++ % kServiceThreadSlots,
        background, period, rng_());
    worker->setStatsSink(&stats_.exec);
    Worker *raw = worker.get();
    machine_.scheduler().add(std::move(worker));
    workers_.push_back(raw);
    if (wired_)
        openDownstreamConns(*raw);
    return raw;
}

void
ServiceInstance::wire(const ServiceResolver &resolver)
{
    downstreamGroups_.clear();
    balancers_.clear();
    balancers_.resize(spec_.downstreams.size());
    edgeRegionPins_.assign(spec_.downstreams.size(), kNoRegionPin);
    std::uint32_t edge = 0;
    for (const std::string &name : spec_.downstreams) {
        const std::vector<ServiceInstance *> &group =
            resolver.resolveService(name);
        if (group.empty()) {
            throw std::runtime_error(
                "wire: service '" + spec_.name +
                "' references unknown downstream '" + name + "'");
        }
        downstreamGroups_.push_back(group);
        balancers_[edge].init(
            spec_.balancing.policyFor(name), group.size(),
            seed_ ^ (0x9e3779b97f4a7c15ull * (edge + 1)));
        edge++;
    }
    breakers_.assign(downstreamGroups_.size(),
                     CircuitBreaker(spec_.resilience.breaker));
    wired_ = true;
    for (Worker *w : workers_) {
        if (w->role() != ThreadRole::Background ||
            !spec_.downstreams.empty()) {
            openDownstreamConns(*w);
        }
    }
}

os::Socket *
ServiceInstance::connectTo(ServiceInstance &target)
{
    os::Socket *mine = machine_.createSocket();
    mine->inboundGate = [this] { return !down_; };
    os::Socket *theirs = target.openConnection();
    os::Network::connect(*mine, *theirs);
    return mine;
}

void
ServiceInstance::openDownstreamConns(Worker &w)
{
    std::vector<std::vector<os::Socket *>> conns;
    for (const std::vector<ServiceInstance *> &group :
         downstreamGroups_) {
        std::vector<os::Socket *> edge;
        for (ServiceInstance *replica : group)
            edge.push_back(connectTo(*replica));
        conns.push_back(std::move(edge));
    }
    w.setDownConns(std::move(conns));
}

std::size_t
ServiceInstance::pickReplica(std::uint32_t target, std::uint64_t key)
{
    const std::vector<ServiceInstance *> &group =
        downstreamGroups_[target];
    const std::uint32_t pin = edgeRegionPins_[target];
    auto alive = [&](std::size_t i) {
        ServiceInstance *r = group[i];
        if (pin != kNoRegionPin && r->machine().regionId() != pin)
            return false;
        return !r->down() && !r->machine().down();
    };
    const std::uint32_t myRegion = machine_.regionId();
    return balancers_[target].pick(key, alive, [&](std::size_t i) {
        return group[i]->machine().regionId() == myRegion;
    });
}

std::size_t
ServiceInstance::pickReplicaExcluding(std::uint32_t target,
                                      std::uint64_t key,
                                      std::size_t exclude)
{
    const std::vector<ServiceInstance *> &group =
        downstreamGroups_[target];
    const std::uint32_t pin = edgeRegionPins_[target];
    auto alive = [&](std::size_t i) {
        ServiceInstance *r = group[i];
        if (pin != kNoRegionPin && r->machine().regionId() != pin)
            return false;
        return !r->down() && !r->machine().down();
    };
    cluster::EdgeBalancer &bal = balancers_[target];
    if (bal.policy() == cluster::BalancerPolicy::PreferLocal) {
        // Hedge locality: while any local replica is alive, the hedge
        // must stay in this machine's region -- if the only live
        // local replica is the primary, return `exclude` so the
        // caller skips the hedge instead of crossing the WAN.
        const std::uint32_t myRegion = machine_.regionId();
        auto local = [&](std::size_t i) {
            return group[i]->machine().regionId() == myRegion;
        };
        bool anyLocal = false;
        bool otherLocal = false;
        for (std::size_t i = 0; i < group.size(); ++i) {
            if (!bal.active(i) || !alive(i) || !local(i))
                continue;
            anyLocal = true;
            if (i != exclude)
                otherLocal = true;
        }
        if (otherLocal)
            return bal.pick(key, [&](std::size_t i) {
                return i != exclude && alive(i) && local(i);
            });
        if (anyLocal)
            return exclude;
        // No local replica alive: cross-region hedge is allowed.
    }
    return bal.pick(key, [&](std::size_t i) {
        return i != exclude && alive(i);
    });
}

void
ServiceInstance::addDownstreamReplica(std::uint32_t target,
                                      ServiceInstance &replica)
{
    downstreamGroups_[target].push_back(&replica);
    balancers_[target].addReplica();
    // Every worker holds a conn vector per edge (wire() and
    // spawnWorker() both run openDownstreamConns): extend each.
    for (Worker *w : workers_)
        w->addDownConn(target, connectTo(replica));
}

void
ServiceInstance::setDownstreamReplicaActive(std::uint32_t target,
                                            std::size_t replica,
                                            bool active)
{
    balancers_[target].setActive(replica, active);
}

std::size_t
ServiceInstance::inboundQueueDepth() const
{
    std::size_t depth = 0;
    for (const Worker *w : workers_)
        depth += w->inboundQueueDepth();
    return depth;
}

std::size_t
ServiceInstance::activeRequests() const
{
    std::size_t active = 0;
    for (const Worker *w : workers_) {
        if (w->requestActive())
            ++active;
    }
    return active;
}

os::Socket *
ServiceInstance::openConnection()
{
    os::Socket *sock = machine_.createSocket();
    sock->inboundGate = [this] { return !down_; };
    Worker *w = nullptr;
    if (spec_.threads.threadPerConnection) {
        w = spawnWorker(
            ThreadRole::ConnHandler,
            spec_.name + ".conn" + std::to_string(nextWorkerForConn_++),
            nullptr, 0);
    } else {
        // Round-robin over the long-lived pool (skip background
        // threads).
        std::vector<Worker *> pool;
        for (Worker *worker : workers_) {
            if (worker->role() == ThreadRole::Worker)
                pool.push_back(worker);
        }
        assert(!pool.empty() && "service has no request workers");
        w = pool[nextWorkerForConn_++ % pool.size()];
    }
    w->addConnection(sock);
    sock->onCancel = [this, w, sock](const os::Message &msg) {
        handleCancel(*w, *sock, msg);
    };
    return sock;
}

void
ServiceInstance::handleCancel(Worker &w, os::Socket &sock,
                              const os::Message &msg)
{
    if (down_)
        return;
    os::Message victim;
    if (sock.removeQueued(msg.tag, victim)) {
        // Still queued: release the inbound slot without running the
        // handler. The request bytes were received, so they count.
        stats_.rxBytes += victim.bytes;
        noteOutcome(w, trace::OutcomeKind::RequestCancelled, 0,
                    victim.endpoint, 0, victim.traceId,
                    "cancelled_in_queue");
        return;
    }
    w.requestCancel(sock, msg.tag);
}

void
ServiceInstance::beginMeasure()
{
    stats_.reset(machine_.events().now());
}

void
ServiceInstance::setDown(bool down)
{
    if (down_ == down)
        return;
    down_ = down;
    if (down) {
        // Crash: in-flight requests vanish (their callers observe a
        // timeout) and user-space locks die with the process.
        for (Worker *w : workers_)
            w->abortRequest();
        for (LockState &lock : locks_) {
            lock.held = false;
            if (lock.queue)
                lock.queue->wake(~0u);
        }
    } else {
        // Warm restart: wake everyone to resume fetching requests.
        for (Worker *w : workers_)
            machine_.scheduler().wake(w);
    }
}

CircuitBreaker *
ServiceInstance::breaker(std::uint32_t target)
{
    if (!spec_.resilience.breaker.enabled ||
        target >= breakers_.size()) {
        return nullptr;
    }
    return &breakers_[target];
}

void
ServiceInstance::noteOutcome(os::Thread &t, trace::OutcomeKind kind,
                             std::uint32_t target,
                             std::uint32_t endpoint, unsigned attempts,
                             std::uint64_t traceId, const char *cause)
{
    switch (kind) {
      case trace::OutcomeKind::RpcOk:
      case trace::OutcomeKind::RpcRetriedOk:
        stats_.rpcOk++;
        break;
      case trace::OutcomeKind::RpcTimeout:
        stats_.rpcTimeouts++;
        break;
      case trace::OutcomeKind::RpcBreakerOpen:
        stats_.rpcBreakerFastFails++;
        break;
      case trace::OutcomeKind::RequestShed:
        stats_.requestsShed++;
        break;
      case trace::OutcomeKind::RequestError:
        stats_.requestsDegraded++;
        break;
      case trace::OutcomeKind::RpcCancelled:
        stats_.rpcCancelled++;
        break;
      case trace::OutcomeKind::RpcHedgeWon:
        // A hedge win is an ok'd call that also tallies as a win.
        stats_.rpcOk++;
        stats_.rpcHedgeWins++;
        break;
      case trace::OutcomeKind::RequestCancelled:
        stats_.requestsCancelled++;
        break;
    }
    if (probe_)
        probe_->onOutcome(t, kind, target, endpoint, attempts);
    if (tracer_) {
        tracer_->recordOutcome(trace::OutcomeEvent{
            traceId, spec_.name, target, endpoint, kind, attempts,
            machine_.events().now(), cause ? cause : ""});
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

Worker::Worker(ServiceInstance &service, ThreadRole role,
               std::string name, unsigned threadSlot,
               const Program *background, sim::Time period,
               std::uint64_t seed)
    : os::Thread(std::move(name), threadSlot, seed), service_(service),
      role_(role), background_(background), period_(period)
{
    if (role_ == ThreadRole::Worker &&
        service_.spec().serverModel == ServerModel::IoMultiplex) {
        epoll_ = service_.machine().createEpoll();
    }
}

void
Worker::addConnection(os::Socket *sock)
{
    conns_.push_back(sock);
    if (epoll_)
        epoll_->watch(sock);
}

sim::Time
Worker::now(const os::StepCtx &ctx) const
{
    return service_.machine().events().now() +
        service_.machine().cyclesToTime(ctx.cyclesUsed);
}

void
Worker::probeSyscall(SysKind kind, std::uint64_t bytes)
{
    if (service_.probe())
        service_.probe()->onSyscall(*this, kind, bytes);
}

void
Worker::accountDiskRead(std::uint64_t bytes)
{
    service_.stats().diskReadBytes += bytes;
}

void
Worker::accountDiskWrite(std::uint64_t bytes)
{
    service_.stats().diskWriteBytes += bytes;
}

void
Worker::armRpcTimer(const os::StepCtx &ctx, sim::Time delay)
{
    cancelRpcTimer();
    // The slice runs ahead of simulated time: anchor the deadline at
    // the syscall's logical position inside the slice, like Unlock.
    rpcState_.timer = service_.machine().events().scheduleAfter(
        ctx.kernel.sliceOffset(ctx) + delay, [this] {
            rpcState_.timer = 0;
            rpcState_.timerFired = true;
            service_.machine().scheduler().wake(this);
        });
}

void
Worker::cancelRpcTimer()
{
    if (rpcState_.timer != 0) {
        service_.machine().events().cancel(rpcState_.timer);
        rpcState_.timer = 0;
    }
    rpcState_.timerFired = false;
}

void
Worker::armHedgeTimer(const os::StepCtx &ctx, sim::Time delay)
{
    cancelHedgeTimer();
    rpcState_.hedgeTimer = service_.machine().events().scheduleAfter(
        ctx.kernel.sliceOffset(ctx) + delay, [this] {
            rpcState_.hedgeTimer = 0;
            rpcState_.hedgeFired = true;
            service_.machine().scheduler().wake(this);
        });
}

void
Worker::cancelHedgeTimer()
{
    if (rpcState_.hedgeTimer != 0) {
        service_.machine().events().cancel(rpcState_.hedgeTimer);
        rpcState_.hedgeTimer = 0;
    }
    rpcState_.hedgeFired = false;
}

sim::Time
Worker::hopBudget() const
{
    // The absolute deadline the inbound request carries, minus the
    // hop margin reserved for the reply leg.
    const ResilienceSpec &res = service_.spec().resilience;
    const sim::Time d = req_.msg.deadline;
    if (!res.propagateDeadline || d == 0)
        return 0;
    return d > res.hopMargin ? d - res.hopMargin : 1;
}

sim::Time
Worker::forwardDeadline(const os::StepCtx &ctx, sim::Time budget) const
{
    const ResilienceSpec &res = service_.spec().resilience;
    if (!res.propagateDeadline)
        return 0;
    sim::Time deadline = res.rpcDeadline > 0 ? now(ctx) + res.rpcDeadline
                                             : 0;
    if (budget != 0 && (deadline == 0 || budget < deadline))
        deadline = budget;
    return deadline;
}

void
Worker::armAttemptTimer(const os::StepCtx &ctx, sim::Time budget)
{
    sim::Time delay = service_.spec().resilience.rpcDeadline;
    if (budget != 0) {
        const sim::Time at = now(ctx);
        const sim::Time rem = budget > at ? budget - at : 1;
        if (delay == 0 || rem < delay)
            delay = rem;
    }
    if (delay > 0)
        armRpcTimer(ctx, delay);
}

bool
Worker::admitCall(const os::StepCtx &ctx, const RpcCallSpec &call,
                  bool budgetDead, unsigned attempts,
                  unsigned breakerAttempts)
{
    const std::uint64_t traceId = req_.msg.traceId;
    if (attempts == 0) {
        if (service_.spec().resilience.any())
            service_.stats().rpcCallsStarted++;
        service_.retryBudget().onFresh();
        if (call.optional && service_.brownoutActive()) {
            // Brownout: the limiter is congested, so shed this
            // optional edge outright. The response is NOT degraded --
            // optional means the caller renders fine without it.
            service_.stats().rpcBrownoutSkipped++;
            service_.noteOutcome(*this, trace::OutcomeKind::RpcCancelled,
                                 call.target, call.endpoint, 0, traceId,
                                 "brownout");
            return false;
        }
    }
    if (budgetDead) {
        // Budget already exhausted: fail fast without putting anything
        // on the wire. A fresh call settles as cancelled; a retry
        // whose budget ran out settles as the timeout it is.
        service_.noteOutcome(*this,
                             attempts == 0
                                 ? trace::OutcomeKind::RpcCancelled
                                 : trace::OutcomeKind::RpcTimeout,
                             call.target, call.endpoint, attempts,
                             traceId, "budget_exhausted");
        req_.degraded = true;
        return false;
    }
    CircuitBreaker *cb = service_.breaker(call.target);
    if (cb && !cb->allowRequest(now(ctx))) {
        service_.noteOutcome(*this, trace::OutcomeKind::RpcBreakerOpen,
                             call.target, call.endpoint, breakerAttempts,
                             traceId);
        req_.degraded = true;
        return false;
    }
    return true;
}

void
Worker::sendAttempt(os::StepCtx &ctx, Attempt &a, const RpcCallSpec &call,
                    std::size_t replica, sim::Time deadline)
{
    a.target = call.target;
    a.endpoint = call.endpoint;
    a.replica = replica;
    a.conn = downConn(call.target, replica);
    service_.balancer(call.target).onSend(replica);

    os::Message req;
    req.kind = os::MsgKind::Request;
    req.bytes = call.requestBytes;
    req.endpoint = call.endpoint;
    req.tag = service_.nextTag();
    req.traceId = req_.msg.traceId;
    req.parentSpan = req_.serverSpan;
    req.sendTime = now(ctx);
    req.deadline = deadline;
    // Priority rides downstream with every hop, like the deadline: a
    // child call works at its root's priority.
    req.priority = req_.msg.priority;
    a.tag = req.tag;
    a.open = true;
    probeSyscall(SysKind::SocketWrite, req.bytes);
    if (service_.probe()) {
        service_.probe()->onRpcIssued(*this, call.target, call.endpoint,
                                      call.requestBytes,
                                      call.responseBytes);
    }
    if (service_.tracer()) {
        ServiceInstance *target = service_.downstream(call.target);
        service_.tracer()->recordEdge(trace::RpcEdge{
            req.traceId, req.parentSpan, service_.name(),
            target ? target->name() : "?", call.endpoint,
            call.requestBytes, call.responseBytes,
            deadline > req.sendTime
                ? static_cast<std::uint64_t>(deadline - req.sendTime)
                : 0});
    }
    service_.stats().txBytes += call.requestBytes;
    ctx.kernel.sysSocketWrite(ctx, *this, *a.conn, std::move(req));
}

Worker::Attempt *
Worker::matchReply(std::uint64_t tag)
{
    for (Attempt &a : rpcState_.attempts) {
        if (a.open && a.tag == tag)
            return &a;
    }
    return nullptr;
}

void
Worker::acceptReply(Attempt &a, const os::Message &resp)
{
    // The delivery that made the reply readable already took this
    // worker off `a.conn`'s wait list (Socket::push wakes its sole
    // waiter), so unlike abandonAttempt there is nothing to leave.
    probeSyscall(SysKind::SocketRead, resp.bytes);
    service_.balancer(a.target).onDone(a.replica);
    a.open = false;
}

void
Worker::dropStaleReply(const os::Message &resp)
{
    // Late reply to an abandoned attempt. The bytes were still
    // delivered and read off the socket, so they count toward rx
    // traffic and the syscall profile.
    service_.stats().rpcStaleResponses++;
    service_.stats().rxBytes += resp.bytes;
    probeSyscall(SysKind::SocketRead, resp.bytes);
}

void
Worker::abandonAttempt(os::StepCtx *ctx, Attempt &a)
{
    a.conn->removeWaiter(this);
    service_.balancer(a.target).onDone(a.replica);
    if (ctx && service_.spec().resilience.cancellation)
        sendCancelMsg(*ctx, a.conn, a.tag, req_.msg.traceId);
    a.open = false;
}

void
Worker::settleOk(const Attempt &a, trace::OutcomeKind kind,
                 unsigned attempts, const os::Message &resp)
{
    if (CircuitBreaker *cb = service_.breaker(a.target))
        cb->onSuccess();
    if (service_.spec().resilience.any()) {
        service_.noteOutcome(*this, kind, a.target, a.endpoint, attempts,
                             req_.msg.traceId);
    }
    service_.stats().rxBytes += resp.bytes;
    // A degraded downstream answer degrades our own response.
    if (resp.status != os::MsgStatus::Ok)
        req_.degraded = true;
}

void
Worker::sendCancelMsg(os::StepCtx &ctx, os::Socket *conn,
                      std::uint64_t tag, std::uint64_t traceId)
{
    os::Message cancel;
    cancel.kind = os::MsgKind::Cancel;
    cancel.bytes = os::kCancelMsgBytes;
    cancel.tag = tag;
    cancel.traceId = traceId;
    cancel.sendTime = now(ctx);
    probeSyscall(SysKind::SocketWrite, cancel.bytes);
    service_.stats().txBytes += cancel.bytes;
    ctx.kernel.sysSocketWrite(ctx, *this, *conn, std::move(cancel));
}

void
Worker::noteLockReleased(std::uint32_t ref)
{
    for (auto it = heldLocks_.rbegin(); it != heldLocks_.rend();
         ++it) {
        if (*it == ref) {
            heldLocks_.erase(std::next(it).base());
            return;
        }
    }
}

void
Worker::releaseHeldLocks()
{
    for (const std::uint32_t ref : heldLocks_) {
        ServiceInstance::LockState &lock = service_.lock(ref);
        lock.held = false;
        if (lock.queue)
            lock.queue->wake(1);
    }
    heldLocks_.clear();
}

void
Worker::detachFromBlockers()
{
    // Only the wait-list part of abandonAttempt: this runs outside the
    // worker's slice, so the balancer slots and cancel chases are left
    // to settleOpenCalls on the worker's next slice.
    for (Attempt &a : rpcState_.attempts) {
        if (a.open)
            a.conn->removeWaiter(this);
    }
    const Op *op = runner_.currentOp();
    if (op && op->kind == OpKind::Lock) {
        ServiceInstance::LockState &lock = service_.lock(op->lockRef);
        if (lock.queue)
            lock.queue->removeWaiter(this);
    }
}

void
Worker::settleOpenCalls(os::StepCtx *ctx, const char *cause)
{
    // Each async fanout call settles on its own; a sync call settles
    // once, whether its primary (and hedge) are in flight or it is
    // backing off between attempts.
    RpcState &rs = rpcState_;
    const bool async = service_.spec().clientModel == ClientModel::Async;
    const bool note = service_.spec().resilience.any();
    auto cancelled = [&](const Attempt &a, unsigned attempts) {
        service_.noteOutcome(*this, trace::OutcomeKind::RpcCancelled,
                             a.target, a.endpoint, attempts,
                             req_.msg.traceId, cause);
    };
    for (Attempt &a : rs.attempts) {
        if (!a.open)
            continue;
        abandonAttempt(ctx, a);
        if (async && note)
            cancelled(a, 1);
    }
    if (!async && rs.attempt > 0 && note)
        cancelled(rs.attempts.front(), rs.attempt);
}

void
Worker::abortRequest()
{
    if (req_.active) {
        // The request dies with the process: settle its open
        // downstream calls so outcome conservation holds, and account
        // the consumed request bytes.
        settleOpenCalls(nullptr, "crash");
        service_.stats().rxBytes += req_.msg.bytes;
        if (service_.spec().resilience.any()) {
            service_.noteOutcome(
                *this, trace::OutcomeKind::RequestCancelled, 0,
                req_.msg.endpoint, 0, req_.msg.traceId, "crash");
        }
    }
    cancelRpcTimer();
    cancelHedgeTimer();
    releaseHeldLocks();
    cancelPending_ = false;
    rpcState_.reset();
    runner_.abort();
    req_.active = false;
    req_.sock = nullptr;
    req_.degraded = false;
}

void
Worker::requestCancel(os::Socket &sock, std::uint64_t tag)
{
    if (!req_.active || cancelPending_ || req_.sock != &sock ||
        req_.msg.tag != tag) {
        return;  // already finished, or a duplicate cancel
    }
    cancelPending_ = true;
    detachFromBlockers();
    service_.machine().scheduler().wake(this);
}

void
Worker::finishCancelledRequest(os::StepCtx &ctx)
{
    cancelPending_ = false;
    settleOpenCalls(&ctx, "upstream_cancel");
    cancelRpcTimer();
    cancelHedgeTimer();
    releaseHeldLocks();
    rpcState_.reset();
    runner_.abort();
    // No response: the caller has already given up. The request
    // bytes were consumed, so they count toward rx traffic.
    service_.stats().rxBytes += req_.msg.bytes;
    service_.noteOutcome(*this, trace::OutcomeKind::RequestCancelled,
                         0, req_.msg.endpoint, 0, req_.msg.traceId,
                         "upstream_cancel");
    req_.active = false;
    req_.sock = nullptr;
    req_.degraded = false;
}

std::size_t
Worker::inboundQueueDepth() const
{
    std::size_t depth = 0;
    for (const os::Socket *sock : conns_)
        depth += sock->queueDepth();
    return depth;
}

os::StepResult
Worker::step(os::StepCtx &ctx)
{
    if (!started_) {
        started_ = true;
        if (service_.probe())
            service_.probe()->onThreadStart(*this, role_);
        if (role_ == ThreadRole::ConnHandler) {
            probeSyscall(SysKind::Clone, 0);
            ctx.kernel.sysClone(ctx, *this);
        }
    }
    if (role_ == ThreadRole::Background)
        return stepBackground(ctx);
    return stepServer(ctx);
}

os::StepResult
Worker::stepBackground(os::StepCtx &ctx)
{
    while (!ctx.overBudget()) {
        if (service_.down())
            return {os::StopReason::Block};
        if (runner_.active()) {
            const ProgramRunner::Status st = runner_.run(ctx, *this);
            if (st == ProgramRunner::Status::Blocked)
                return {os::StopReason::Block};
            if (st == ProgramRunner::Status::Budget)
                return {os::StopReason::Yield};
            bgPhase_ = 0;
            continue;
        }
        if (bgPhase_ == 0) {
            probeSyscall(SysKind::Nanosleep, 0);
            ctx.kernel.sysNanosleep(ctx, *this, period_);
            bgPhase_ = 1;
            return {os::StopReason::Block};
        }
        // Woke from the timer: run one period's body.
        bgPhase_ = 0;
        if (background_ && !background_->empty())
            runner_.start(background_);
        else
            bgPhase_ = 0;
    }
    return {os::StopReason::Yield};
}

bool
Worker::fetchNextRequest(os::StepCtx &ctx, bool &blocked)
{
    os::Kernel &kernel = ctx.kernel;
    const ServerModel model = service_.spec().serverModel;
    blocked = false;

    if (role_ == ThreadRole::ConnHandler ||
        model == ServerModel::BlockingPerConn) {
        if (conns_.empty()) {
            blocked = true;  // no connection yet; nothing to do
            return false;
        }
        os::Message msg;
        if (kernel.sysSocketRead(ctx, *this, *conns_[0], msg) ==
            os::SysResult::Ok) {
            probeSyscall(SysKind::SocketRead, msg.bytes);
            beginRequest(ctx, conns_[0], std::move(msg));
            return true;
        }
        blocked = true;
        return false;
    }

    if (model == ServerModel::NonBlocking) {
        // One polling sweep over all connections.
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            os::Socket *sock =
                conns_[(pollCursor_ + i) % conns_.size()];
            os::Message msg;
            if (kernel.sysSocketTryRead(ctx, *this, *sock, msg) ==
                os::SysResult::Ok) {
                probeSyscall(SysKind::SocketRead, msg.bytes);
                pollCursor_ = (pollCursor_ + i + 1) % conns_.size();
                beginRequest(ctx, sock, std::move(msg));
                return true;
            }
            // Empty poll: visible to the profiler as a failed read.
            probeSyscall(SysKind::SocketRead, 0);
        }
        return false;  // not blocked: busy-poll again next slice
    }

    // IoMultiplex.
    while (!readyList_.empty()) {
        os::Socket *sock = readyList_.front();
        readyList_.pop_front();
        if (!sock->readable())
            continue;
        os::Message msg;
        if (kernel.sysSocketTryRead(ctx, *this, *sock, msg) ==
            os::SysResult::Ok) {
            probeSyscall(SysKind::SocketRead, msg.bytes);
            beginRequest(ctx, sock, std::move(msg));
            return true;
        }
    }
    probeSyscall(SysKind::EpollWait, 0);
    if (kernel.sysEpollWait(ctx, *this, *epoll_, readyScratch_) ==
        os::SysResult::Ok) {
        readyList_.assign(readyScratch_.begin(), readyScratch_.end());
        // Loop around in the caller to drain the ready list.
        return false;
    }
    blocked = true;
    return false;
}

void
Worker::beginRequest(os::StepCtx &ctx, os::Socket *sock,
                     os::Message msg)
{
    const ResilienceSpec &res = service_.spec().resilience;
    if (res.propagateDeadline && msg.deadline != 0 &&
        now(ctx) > msg.deadline) {
        // Dead on arrival: the caller's budget is spent, so a reply
        // could never be used. Drop without executing or responding.
        service_.stats().rxBytes += msg.bytes;
        service_.noteOutcome(*this,
                             trace::OutcomeKind::RequestCancelled, 0,
                             msg.endpoint, 0, msg.traceId,
                             "expired_on_arrival");
        return;
    }
    if (OverloadController *ov = service_.overload()) {
        // Adaptive admission at dequeue: sojourn / doomed-deadline
        // drops first (CoDel-style -- staleness is judged where it is
        // observable), then the concurrency limit graduated by the
        // request's propagated priority. `outstanding` counts the
        // whole instance, not this worker: the limiter guards shared
        // service capacity the way a listener-level filter would.
        const std::size_t outstanding =
            service_.activeRequests() + service_.inboundQueueDepth();
        const char *cause = ov->admit(
            now(ctx), msg.sendTime,
            res.propagateDeadline ? msg.deadline : 0, msg.priority,
            outstanding);
        if (cause != nullptr) {
            shedRequest(ctx, sock, std::move(msg), cause);
            return;
        }
    }
    const unsigned shedAt = res.shedQueueThreshold;
    if (shedAt > 0 && inboundQueueDepth() >= shedAt) {
        shedRequest(ctx, sock, std::move(msg));
        return;
    }
    req_.sock = sock;
    req_.start = now(ctx);
    req_.active = true;
    req_.degraded = false;
    req_.serverSpan = 0;
    if (service_.tracer() && service_.tracer()->sampled(msg.traceId))
        req_.serverSpan = service_.tracer()->newSpanId();
    req_.msg = std::move(msg);

    const auto endpoint = std::min<std::uint32_t>(
        req_.msg.endpoint,
        static_cast<std::uint32_t>(
            service_.spec().endpoints.size() - 1));
    req_.msg.endpoint = endpoint;
    runner_.start(&service_.spec().endpoints[endpoint].handler);
}

void
Worker::finishRequest(os::StepCtx &ctx)
{
    const EndpointSpec &ep =
        service_.spec().endpoints[req_.msg.endpoint];
    sim::Rng &rng = service_.rng();
    const std::uint32_t respBytes =
        ep.responseBytesMin >= ep.responseBytesMax
        ? ep.responseBytesMin
        : static_cast<std::uint32_t>(
              rng.uniformInt(
                  static_cast<std::int64_t>(ep.responseBytesMin),
                  static_cast<std::int64_t>(ep.responseBytesMax)));

    os::Message resp;
    resp.kind = os::MsgKind::Response;
    resp.status =
        req_.degraded ? os::MsgStatus::Error : os::MsgStatus::Ok;
    resp.bytes = respBytes;
    resp.endpoint = req_.msg.endpoint;
    resp.tag = req_.msg.tag;
    resp.traceId = req_.msg.traceId;
    resp.sendTime = req_.msg.sendTime;
    probeSyscall(SysKind::SocketWrite, respBytes);
    ctx.kernel.sysSocketWrite(ctx, *this, *req_.sock, std::move(resp));

    const sim::Time end = now(ctx);
    ServiceStats &stats = service_.stats();
    stats.requests += 1;
    stats.rxBytes += req_.msg.bytes;
    stats.txBytes += respBytes;
    const sim::Time latency =
        end > req_.start ? end - req_.start : 0;
    stats.latency.record(latency);
    if (OverloadController *ov = service_.overload())
        ov->onRequestDone(latency);
    if (service_.probe())
        service_.probe()->onRequestDone(req_.msg.endpoint, latency);
    if (req_.serverSpan && service_.tracer()) {
        service_.tracer()->recordSpan(trace::Span{
            req_.msg.traceId, req_.serverSpan, req_.msg.parentSpan,
            service_.name(), req_.msg.endpoint, req_.start, end});
    }
    if (req_.degraded) {
        service_.noteOutcome(*this, trace::OutcomeKind::RequestError,
                             0, req_.msg.endpoint, 0,
                             req_.msg.traceId);
    }
    req_.active = false;
    req_.sock = nullptr;
    req_.degraded = false;
}

void
Worker::shedRequest(os::StepCtx &ctx, os::Socket *sock,
                    os::Message msg, const char *cause)
{
    // Fail fast: a tiny rejection response, no handler execution.
    os::Message resp;
    resp.kind = os::MsgKind::Response;
    resp.status = os::MsgStatus::Shed;
    resp.bytes = 64;
    resp.endpoint = msg.endpoint;
    resp.tag = msg.tag;
    resp.traceId = msg.traceId;
    resp.sendTime = msg.sendTime;
    probeSyscall(SysKind::SocketWrite, resp.bytes);
    ServiceStats &stats = service_.stats();
    stats.rxBytes += msg.bytes;
    stats.txBytes += resp.bytes;
    service_.noteOutcome(*this, trace::OutcomeKind::RequestShed, 0,
                         msg.endpoint, 0, msg.traceId, cause);
    ctx.kernel.sysSocketWrite(ctx, *this, *sock, std::move(resp));
}

os::StepResult
Worker::stepServer(os::StepCtx &ctx)
{
    while (!ctx.overBudget()) {
        if (service_.down())
            return {os::StopReason::Block};
        if (req_.active) {
            if (cancelPending_) {
                finishCancelledRequest(ctx);
                continue;
            }
            const ProgramRunner::Status st = runner_.run(ctx, *this);
            if (st == ProgramRunner::Status::Blocked)
                return {os::StopReason::Block};
            if (st == ProgramRunner::Status::Budget)
                return {os::StopReason::Yield};
            finishRequest(ctx);
            continue;
        }
        bool blocked = false;
        if (fetchNextRequest(ctx, blocked))
            continue;
        if (blocked)
            return {os::StopReason::Block};
        if (service_.spec().serverModel == ServerModel::NonBlocking)
            return {os::StopReason::Yield};  // busy-poll
        // IoMultiplex: epoll returned a ready list; loop to drain it.
    }
    return {os::StopReason::Yield};
}

} // namespace ditto::app
