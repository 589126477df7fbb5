/**
 * @file
 * Per-edge replica load balancing.
 *
 * A service that calls a replicated downstream holds one EdgeBalancer
 * per downstream edge. The balancer picks which replica serves each
 * RPC attempt under one of four policies (round-robin,
 * least-outstanding-requests, power-of-two-choices, consistent
 * hashing on the request key), mirroring the client-side balancing of
 * Envoy/Finagle/gRPC. A caller picks one policy for all its edges
 * through ServiceSpec::balancing.
 *
 * Determinism (DESIGN.md §8): every balancer belongs to exactly one
 * calling ServiceInstance and draws randomness (power-of-two only)
 * from its own Rng seeded off the instance seed, so a deployment's
 * routing decisions are a pure function of its seed at any
 * RunExecutor worker count. With a single replica every policy
 * degenerates to "pick replica 0" without drawing randomness, keeping
 * unreplicated deployments bit-identical to the pre-cluster runtime.
 *
 * Liveness is supplied by the caller as a predicate (replica crashed,
 * machine down, replica retired by the autoscaler): the balancer
 * never selects a replica the predicate rejects while at least one
 * replica is acceptable, which is how traffic routes around injected
 * crashes the moment they are visible.
 */

#ifndef DITTO_CLUSTER_BALANCER_H_
#define DITTO_CLUSTER_BALANCER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace ditto::cluster {

/** Replica-selection policy of one caller->callee edge. */
enum class BalancerPolicy : std::uint8_t
{
    RoundRobin,       //!< rotate over live replicas
    LeastOutstanding, //!< fewest requests in flight from this caller
    PowerOfTwo,       //!< two random candidates, pick less loaded
    ConsistentHash,   //!< hash the request key onto a replica ring
    PreferLocal,      //!< round-robin in the caller's region, spill
                      //!< over to remote replicas only when no local
                      //!< replica is usable
};

/** Human-readable policy name. */
const char *balancerPolicyName(BalancerPolicy policy);

/**
 * Balancing configuration of one service, applied to the RPC edges it
 * originates. Like ResilienceSpec this is deployment-side config: it
 * is not part of the serialized clone artifact, and the defaults keep
 * an unreplicated deployment byte-identical to the seed runtime.
 */
struct BalancingSpec
{
    /** Replica selection on every edge this service originates. */
    BalancerPolicy policy = BalancerPolicy::RoundRobin;
    /**
     * Per-edge region pins, keyed by downstream service name: the
     * edge only targets replicas in the named region (regardless of
     * policy). Region names are validated against the deployment's
     * region registry at wireAll() time.
     */
    std::map<std::string, std::string> pinRegion;

    /** Region pin of one edge; nullptr when unpinned. */
    const std::string *
    regionPinFor(const std::string &downstream) const
    {
        auto it = pinRegion.find(downstream);
        return it != pinRegion.end() ? &it->second : nullptr;
    }
};

/**
 * Replica selector for one edge. Tracks per-replica outstanding
 * attempts (the caller signals onSend/onDone) and an active flag per
 * replica (cleared when the autoscaler retires one). The caller is
 * one single-threaded simulated deployment, so no locking.
 */
class EdgeBalancer
{
  public:
    static constexpr std::size_t kNoReplica =
        static_cast<std::size_t>(-1);

    EdgeBalancer() = default;

    /** (Re)initialize for `replicas` replicas of one downstream. */
    void init(BalancerPolicy policy, std::size_t replicas,
              std::uint64_t seed);

    /** A replica was added (autoscaler scale-up); starts active. */
    void addReplica();

    /** Retire / reactivate one replica. */
    void setActive(std::size_t replica, bool active);
    bool active(std::size_t replica) const
    {
        return active_[replica] != 0;
    }

    std::size_t replicaCount() const { return outstanding_.size(); }
    BalancerPolicy policy() const { return policy_; }

    /** One attempt was sent to / finished on `replica`. */
    void onSend(std::size_t replica) { outstanding_[replica]++; }
    void
    onDone(std::size_t replica)
    {
        if (outstanding_[replica] > 0)
            outstanding_[replica]--;
    }

    std::uint32_t outstanding(std::size_t replica) const
    {
        return outstanding_[replica];
    }

    /**
     * Pick the replica for one attempt. `alive(i)` must say whether
     * replica i can currently serve (not crashed, machine up); the
     * balancer additionally excludes retired replicas. When no
     * replica is both active and alive the pick falls back to the
     * policy's choice over all replicas -- the attempt will then time
     * out exactly like a call into a crashed singleton service.
     *
     * `key` is the request key (trace id) used by ConsistentHash and
     * ignored by the other policies.
     */
    template <typename AliveFn>
    std::size_t
    pick(std::uint64_t key, AliveFn &&alive)
    {
        // No locality information: PreferLocal degenerates to plain
        // round-robin over usable replicas.
        return pick(key, alive, [](std::size_t) { return false; });
    }

    /**
     * Locality-aware variant: `local(i)` says whether replica i lives
     * in the caller's own region. Only PreferLocal consults it --
     * round-robin over usable local replicas, spilling over to the
     * full usable set when no local replica can serve. Draws no
     * randomness, so region-free runs stay bit-identical.
     */
    template <typename AliveFn, typename LocalFn>
    std::size_t
    pick(std::uint64_t key, AliveFn &&alive, LocalFn &&local)
    {
        const std::size_t n = outstanding_.size();
        if (n <= 1)
            return 0;
        auto usable = [&](std::size_t i) {
            return active_[i] != 0 && alive(i);
        };
        switch (policy_) {
          case BalancerPolicy::RoundRobin:
            return pickRoundRobin(usable);
          case BalancerPolicy::LeastOutstanding:
            return pickLeastOutstanding(usable);
          case BalancerPolicy::PowerOfTwo:
            return pickPowerOfTwo(usable);
          case BalancerPolicy::ConsistentHash:
            return pickConsistentHash(key, usable);
          case BalancerPolicy::PreferLocal: {
            bool anyLocal = false;
            for (std::size_t i = 0; i < n && !anyLocal; ++i)
                anyLocal = usable(i) && local(i);
            if (anyLocal)
                return pickRoundRobin([&](std::size_t i) {
                    return usable(i) && local(i);
                });
            return pickRoundRobin(usable);
          }
        }
        return 0;
    }

  private:
    BalancerPolicy policy_ = BalancerPolicy::RoundRobin;
    std::vector<std::uint32_t> outstanding_;
    std::vector<std::uint8_t> active_;
    std::size_t rr_ = 0;
    std::uint64_t seed_ = 0;
    sim::Rng rng_{0};
    /** Consistent-hash ring: (point, replica), sorted by point. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;

    void insertRingPoints(std::uint32_t replica);

    template <typename UsableFn>
    std::size_t
    pickRoundRobin(UsableFn &&usable)
    {
        const std::size_t n = outstanding_.size();
        for (std::size_t t = 0; t < n; ++t) {
            const std::size_t i = (rr_ + t) % n;
            if (usable(i)) {
                rr_ = i + 1;
                return i;
            }
        }
        const std::size_t fallback = rr_ % n;
        rr_++;
        return fallback;
    }

    template <typename UsableFn>
    std::size_t
    pickLeastOutstanding(UsableFn &&usable)
    {
        const std::size_t n = outstanding_.size();
        std::size_t best = kNoReplica;
        for (std::size_t i = 0; i < n; ++i) {
            if (!usable(i))
                continue;
            if (best == kNoReplica ||
                outstanding_[i] < outstanding_[best]) {
                best = i;
            }
        }
        return best != kNoReplica ? best : 0;
    }

    template <typename UsableFn>
    std::size_t
    pickPowerOfTwo(UsableFn &&usable)
    {
        const std::size_t n = outstanding_.size();
        const auto a =
            static_cast<std::size_t>(rng_.uniformInt(n));
        const auto b =
            static_cast<std::size_t>(rng_.uniformInt(n));
        const bool aOk = usable(a);
        const bool bOk = usable(b);
        if (aOk && bOk) {
            if (outstanding_[a] != outstanding_[b])
                return outstanding_[a] < outstanding_[b] ? a : b;
            return a < b ? a : b;
        }
        if (aOk)
            return a;
        if (bOk)
            return b;
        // Both candidates dead: degrade to least-outstanding so a
        // single surviving replica still gets the traffic.
        return pickLeastOutstanding(usable);
    }

    template <typename UsableFn>
    std::size_t
    pickConsistentHash(std::uint64_t key, UsableFn &&usable)
    {
        if (ring_.empty())
            return 0;
        const std::uint64_t h = hashPoint(key);
        std::size_t lo = 0;
        std::size_t hi = ring_.size();
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (ring_[mid].first < h)
                lo = mid + 1;
            else
                hi = mid;
        }
        // Walk clockwise to the first usable owner.
        for (std::size_t t = 0; t < ring_.size(); ++t) {
            const auto &node = ring_[(lo + t) % ring_.size()];
            if (usable(node.second))
                return node.second;
        }
        return ring_[lo % ring_.size()].second;
    }

    static std::uint64_t hashPoint(std::uint64_t x);
};

} // namespace ditto::cluster

#endif // DITTO_CLUSTER_BALANCER_H_
