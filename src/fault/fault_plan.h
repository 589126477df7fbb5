/**
 * @file
 * Declarative fault plans.
 *
 * A FaultPlan is a seed-reproducible description of *what goes wrong
 * when* in a deployment: link packet loss, latency spikes, network
 * partitions, machine and service crashes with timed restarts, and
 * disk slowdowns. Plans are pure data -- they name machines and
 * services by string and carry absolute start times -- so the same
 * plan can be installed on an original deployment and on its Ditto
 * clone, which is exactly how fidelity under faults is validated
 * (bench_paper's fault section, bench/bench_faults.cc). A caller that
 * wants random faults samples concrete windows from its own seeded
 * rng and adds them (ditto-chaos does), so every plan is a fixed,
 * replayable schedule.
 */

#ifndef DITTO_FAULT_FAULT_PLAN_H_
#define DITTO_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace ditto::fault {

/** What kind of fault one plan entry injects. */
enum class FaultKind : std::uint8_t
{
    LinkDrop,      //!< probabilistic packet loss on a machine link
    LinkLatency,   //!< latency spike added to a machine link
    Partition,     //!< hard two-way partition of a machine link
    MachineCrash,  //!< freeze a whole machine, warm-restart later
    ServiceCrash,  //!< crash one service instance, restart later
    DiskSlowdown,  //!< multiply a machine's disk service times
    // ---- region-scoped kinds (a/b name regions, not machines) ----
    RegionPartition, //!< two-way partition of a region pair; an empty
                     //!< b isolates region a from every other region
    RegionOutage,    //!< crash every machine of a region, restart later
    WanDegrade,      //!< drop prob + latency on a region pair's WAN
};

/** Human-readable fault kind name. */
const char *faultKindName(FaultKind kind);

/**
 * One fault window. `a`/`b` name machines for link faults (an empty
 * name stands for the external client side); `a` names the machine
 * for MachineCrash / DiskSlowdown and the service for ServiceCrash.
 * For the region-scoped kinds `a`/`b` name regions
 * (app::Deployment::defineRegion).
 */
struct FaultSpec
{
    FaultKind kind = FaultKind::LinkDrop;
    std::string a;
    std::string b;
    sim::Time start = 0;
    /** Window length; 0 means "until the end of the run". */
    sim::Time duration = 0;
    /** Drop probability (LinkDrop) or slowdown factor (DiskSlowdown). */
    double magnitude = 0;
    /** Added one-way latency (LinkLatency). */
    sim::Time extraLatency = 0;
};

/**
 * An ordered collection of fault windows plus fluent builders.
 * Windows may overlap arbitrarily; the injector composes them
 * (drop probabilities combine independently, latencies add,
 * partitions and crashes nest by counting).
 */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    FaultPlan &linkDrop(const std::string &a, const std::string &b,
                        sim::Time start, sim::Time duration,
                        double dropProb);
    FaultPlan &linkLatency(const std::string &a, const std::string &b,
                           sim::Time start, sim::Time duration,
                           sim::Time extra);
    FaultPlan &partition(const std::string &a, const std::string &b,
                         sim::Time start, sim::Time duration);
    FaultPlan &machineCrash(const std::string &machine,
                            sim::Time start, sim::Time downFor);
    FaultPlan &serviceCrash(const std::string &service,
                            sim::Time start, sim::Time downFor);
    FaultPlan &diskSlowdown(const std::string &machine,
                            sim::Time start, sim::Time duration,
                            double factor);

    /**
     * Hard two-way partition of the WAN between regions `a` and `b`;
     * an empty `b` isolates region `a` from every other region.
     */
    FaultPlan &regionPartition(const std::string &a,
                               const std::string &b, sim::Time start,
                               sim::Time duration);

    /** Crash every machine of `region`, warm-restart after downFor. */
    FaultPlan &regionOutage(const std::string &region, sim::Time start,
                            sim::Time downFor);

    /**
     * Degrade the WAN between regions `a` and `b`: per-message drop
     * probability plus added one-way latency (either may be 0).
     */
    FaultPlan &wanDegrade(const std::string &a, const std::string &b,
                          sim::Time start, sim::Time duration,
                          double dropProb, sim::Time extra);
};

} // namespace ditto::fault

#endif // DITTO_FAULT_FAULT_PLAN_H_
