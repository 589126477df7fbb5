#include "os/socket.h"

#include <algorithm>

#include "os/thread.h"

namespace ditto::os {

void
Socket::push(Message msg)
{
    rxBytes += msg.bytes;
    if (msg.kind == MsgKind::Cancel) {
        // Cancels are control-plane: handled out of band, never
        // queued, and dropped when no handler is installed.
        if (onCancel)
            onCancel(msg);
        return;
    }
    if (onDeliver) {
        // Client pseudo-socket: consume immediately, no queueing.
        onDeliver(msg);
        return;
    }
    rx_.push_back(std::move(msg));
    // Wake one blocked reader, if any; otherwise notify epoll.
    if (!waiters_.empty()) {
        Thread *t = waiters_.front();
        waiters_.erase(waiters_.begin());
        if (wakeFn)
            wakeFn(t);
    } else if (epoll_) {
        epoll_->notifyReadable(this);
    }
}

Message
Socket::pop()
{
    Message msg = std::move(rx_.front());
    rx_.pop_front();
    return msg;
}

bool
Socket::removeQueued(std::uint64_t tag, Message &out)
{
    for (auto it = rx_.begin(); it != rx_.end(); ++it) {
        if (it->kind == MsgKind::Request && it->tag == tag) {
            out = std::move(*it);
            rx_.erase(it);
            return true;
        }
    }
    return false;
}

void
Socket::addWaiter(Thread *t)
{
    if (std::find(waiters_.begin(), waiters_.end(), t) == waiters_.end())
        waiters_.push_back(t);
}

void
Socket::removeWaiter(Thread *t)
{
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), t),
                   waiters_.end());
}

void
Epoll::watch(Socket *s)
{
    if (std::find(watched_.begin(), watched_.end(), s) == watched_.end()) {
        watched_.push_back(s);
        s->setEpoll(this);
    }
}

void
Epoll::unwatch(Socket *s)
{
    watched_.erase(std::remove(watched_.begin(), watched_.end(), s),
                   watched_.end());
    s->setEpoll(nullptr);
}

void
Epoll::notifyReadable(Socket *)
{
    if (!waiters_.empty()) {
        Thread *t = waiters_.front();
        waiters_.erase(waiters_.begin());
        if (wakeFn)
            wakeFn(t);
    }
}

void
Epoll::readySockets(std::vector<Socket *> &out) const
{
    out.clear();
    for (Socket *s : watched_) {
        if (s->readable())
            out.push_back(s);
    }
}

bool
Epoll::anyReady() const
{
    return std::any_of(watched_.begin(), watched_.end(),
                       [](const Socket *s) { return s->readable(); });
}

void
Epoll::addWaiter(Thread *t)
{
    if (std::find(waiters_.begin(), waiters_.end(), t) == waiters_.end())
        waiters_.push_back(t);
}

void
Epoll::removeWaiter(Thread *t)
{
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), t),
                   waiters_.end());
}

void
WaitQueue::addWaiter(Thread *t)
{
    if (std::find(waiters_.begin(), waiters_.end(), t) == waiters_.end())
        waiters_.push_back(t);
}

void
WaitQueue::removeWaiter(Thread *t)
{
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), t),
                   waiters_.end());
}

unsigned
WaitQueue::wake(unsigned n)
{
    unsigned woken = 0;
    while (woken < n && !waiters_.empty()) {
        Thread *t = waiters_.front();
        waiters_.erase(waiters_.begin());
        if (wakeFn)
            wakeFn(t);
        ++woken;
    }
    return woken;
}

} // namespace ditto::os
