/**
 * @file
 * Sockets, messages, and epoll for the network-stack model.
 *
 * A Socket is one endpoint of a connection: it owns a receive queue
 * of Messages and a waiter list. Delivery (wire + NIC serialization)
 * is handled by os::Network; kernel CPU costs of rx/tx paths are
 * charged by the Kernel's syscall implementations.
 */

#ifndef DITTO_OS_SOCKET_H_
#define DITTO_OS_SOCKET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.h"

namespace ditto::os {

class Thread;
class Epoll;

/** Message kinds flowing between services. */
enum class MsgKind : std::uint8_t
{
    Request,
    Response,
    Connect,
    Cancel, //!< best-effort "stop working on tag" chase message
};

/** Wire size of a cancellation chase message. */
inline constexpr std::uint32_t kCancelMsgBytes = 32;

/** Application-level status carried by a response. */
enum class MsgStatus : std::uint8_t
{
    Ok,     //!< handled normally
    Error,  //!< handled degraded (a downstream call failed)
    Shed,   //!< rejected fast by load shedding
};

/**
 * One application-level message (a framed request or response).
 * Framing is abstracted: one read() consumes one message.
 */
struct Message
{
    MsgKind kind = MsgKind::Request;
    MsgStatus status = MsgStatus::Ok;
    std::uint32_t bytes = 0;
    std::uint32_t endpoint = 0;   //!< target endpoint (request type)
    std::uint64_t tag = 0;        //!< request id for response matching
    std::uint64_t traceId = 0;
    std::uint64_t parentSpan = 0;
    sim::Time sendTime = 0;
    /**
     * Absolute deadline propagated with a request; 0 when the caller
     * attached none. Only honored by services whose ResilienceSpec
     * opts into deadline propagation.
     */
    sim::Time deadline = 0;
    /**
     * Request priority stamped by the client's endpoint class and
     * propagated downstream like the deadline; 0 (the default and
     * lowest) sheds first under graduated priority admission. Only
     * honored by services whose OverloadSpec sets priorityLevels > 1.
     */
    std::uint8_t priority = 0;
    /** Client-side completion hook (used by load generators). */
    std::function<void(const Message &)> onResponse;
};

/**
 * One endpoint of a (TCP-like) connection.
 *
 * The peer pointer allows in-process reply routing; cross-machine
 * delivery latency is applied by Network before push() is called.
 */
class Socket
{
  public:
    explicit Socket(std::uint64_t id) : id_(id) {}

    std::uint64_t id() const { return id_; }

    /** Peer endpoint (may be a client-side pseudo socket). */
    Socket *peer = nullptr;

    /** Machine that hosts this endpoint; null for external clients. */
    class Machine *machine = nullptr;

    /** Deliver a message into the receive queue and notify. */
    void push(Message msg);

    bool readable() const { return !rx_.empty(); }
    std::size_t queueDepth() const { return rx_.size(); }

    /** Pop the next message; requires readable(). */
    Message pop();

    /**
     * Remove a queued request with the given tag (cooperative
     * cancellation before the request was dequeued). @retval true a
     * matching request was found, removed, and moved into `out`.
     */
    bool removeQueued(std::uint64_t tag, Message &out);

    /** Register a thread blocked in read()/recv() on this socket. */
    void addWaiter(Thread *t);
    void removeWaiter(Thread *t);

    /** Attach to an epoll instance (I/O multiplexing model). */
    void setEpoll(Epoll *ep) { epoll_ = ep; }
    Epoll *epoll() const { return epoll_; }

    /** External delivery hook for client pseudo-sockets. */
    std::function<void(const Message &)> onDeliver;

    /**
     * Cancellation hook installed by the owning service. A delivered
     * MsgKind::Cancel never enters the receive queue: it invokes this
     * hook (when set) and is otherwise dropped.
     */
    std::function<void(const Message &)> onCancel;

    /**
     * Delivery gate installed by the owning service: when set and
     * returning false (service crashed), the network drops inbound
     * messages instead of queueing them.
     */
    std::function<bool()> inboundGate;

    /** Wake callback installed by the hosting machine's scheduler. */
    std::function<void(Thread *)> wakeFn;

    std::uint64_t rxBytes = 0;
    std::uint64_t txBytes = 0;

  private:
    std::uint64_t id_;
    std::deque<Message> rx_;
    std::vector<Thread *> waiters_;
    Epoll *epoll_ = nullptr;
};

/**
 * I/O multiplexing: a set of watched sockets plus threads blocked in
 * epoll_wait. A socket becoming readable marks it ready and wakes one
 * waiting thread (EPOLLEXCLUSIVE-style, avoiding thundering herds).
 */
class Epoll
{
  public:
    explicit Epoll(std::uint64_t id) : id_(id) {}

    std::uint64_t id() const { return id_; }

    void watch(Socket *s);

    /** Called by a socket when it becomes readable. */
    void notifyReadable(Socket *s);

    /**
     * Sockets with pending data right now, into `out`, which is
     * cleared first (its capacity is kept for the next call).
     */
    void readySockets(std::vector<Socket *> &out) const;

    bool anyReady() const;

    void addWaiter(Thread *t);
    void removeWaiter(Thread *t);

    /** Wake callback installed by the hosting machine's scheduler. */
    std::function<void(Thread *)> wakeFn;

  private:
    std::uint64_t id_;
    std::vector<Socket *> watched_;
    std::vector<Thread *> waiters_;
};

/**
 * Futex-like wait queue for locks, condition variables, and
 * thread-pool task handoff (the paper's user-space trigger points).
 */
class WaitQueue
{
  public:
    void addWaiter(Thread *t);
    void removeWaiter(Thread *t);

    /** Wake up to n waiters; @return number woken. */
    unsigned wake(unsigned n = 1);

    bool hasWaiters() const { return !waiters_.empty(); }

    std::function<void(Thread *)> wakeFn;

  private:
    std::vector<Thread *> waiters_;
};

} // namespace ditto::os

#endif // DITTO_OS_SOCKET_H_
