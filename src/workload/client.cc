#include "workload/client.h"

#include <algorithm>

namespace ditto::workload {

Client::Client(app::Deployment &dep, app::ServiceInstance &target,
               unsigned connections, std::uint64_t sockIdBase,
               sim::Time timeout, bool propagateDeadline,
               bool cancelOnTimeout)
    : dep_(dep), timeout_(timeout),
      propagateDeadline_(propagateDeadline),
      cancelOnTimeout_(cancelOnTimeout)
{
    conns_.resize(std::max(1u, connections));
    std::uint64_t sockId = sockIdBase;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        conns_[i].client = std::make_unique<os::Socket>(sockId++);
        conns_[i].client->machine = nullptr; // external client
        conns_[i].server = target.openConnection();
        os::Network::connect(*conns_[i].client, *conns_[i].server);
        conns_[i].client->onDeliver = [this, i](const os::Message &m) {
            onResponse(i, m);
        };
    }
}

Client::~Client() = default;

void
Client::beginMeasure()
{
    latency_.reset();
    measureStart_ = dep_.events().now();
    measuredCompleted_ = 0;
    measuredOk_ = 0;
}

std::uint64_t
Client::inFlight() const
{
    std::uint64_t n = 0;
    for (const Conn &c : conns_)
        n += c.pending.size();
    return n;
}

double
Client::achievedQps() const
{
    const double secs =
        sim::toSeconds(dep_.events().now() - measureStart_);
    return secs > 0
        ? static_cast<double>(measuredCompleted_) / secs : 0.0;
}

double
Client::goodput() const
{
    const double secs =
        sim::toSeconds(dep_.events().now() - measureStart_);
    return secs > 0 ? static_cast<double>(measuredOk_) / secs : 0.0;
}

void
Client::send(std::size_t connIdx, os::Message req, Call call)
{
    Conn &conn = conns_[connIdx];
    req.kind = os::MsgKind::Request;
    req.sendTime = dep_.events().now();
    if (propagateDeadline_ && timeout_ > 0)
        req.deadline = req.sendTime + timeout_;
    call.sendTime = req.sendTime;
    const std::uint64_t tag = req.tag;
    if (timeout_ > 0) {
        call.timer = dep_.events().scheduleAfter(
            timeout_,
            [this, connIdx, tag] { onTimeout(connIdx, tag); });
    }
    conn.pending.emplace(tag, call);
    ++sent_;
    dep_.network().send(*conn.client, std::move(req));
}

void
Client::onResponse(std::size_t connIdx, const os::Message &resp)
{
    Conn &conn = conns_[connIdx];
    const Call *found = conn.pending.find(resp.tag);
    if (found == nullptr) {
        ++lateResponses_; // reply to a call that already timed out
        return;
    }
    const Call call = *found;
    if (call.timer != 0)
        dep_.events().cancel(call.timer);
    conn.pending.erase(resp.tag);
    ++completed_;
    ++measuredCompleted_;
    Settle how = Settle::Ok;
    switch (resp.status) {
      case os::MsgStatus::Ok:
        ++completedOk_;
        ++measuredOk_;
        break;
      case os::MsgStatus::Error:
        ++completedError_;
        how = Settle::Error;
        break;
      case os::MsgStatus::Shed:
        ++completedShed_;
        how = Settle::Shed;
        break;
    }
    const sim::Time now = dep_.events().now();
    const sim::Time lat =
        now > resp.sendTime ? now - resp.sendTime : 0;
    latency_.record(lat);
    settled(connIdx, call, how, lat);
}

void
Client::onTimeout(std::size_t connIdx, std::uint64_t tag)
{
    Conn &conn = conns_[connIdx];
    const Call *found = conn.pending.find(tag);
    if (found == nullptr)
        return;
    const Call call = *found;
    conn.pending.erase(tag);
    ++timedOut_;
    if (cancelOnTimeout_) {
        os::Message cancel;
        cancel.kind = os::MsgKind::Cancel;
        cancel.bytes = os::kCancelMsgBytes;
        cancel.tag = tag;
        cancel.traceId = tag;
        cancel.sendTime = dep_.events().now();
        ++cancelsSent_;
        dep_.network().send(*conn.client, std::move(cancel));
    }
    settled(connIdx, call, Settle::TimedOut, timeout_);
}

} // namespace ditto::workload
