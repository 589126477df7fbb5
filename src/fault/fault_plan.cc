#include "fault/fault_plan.h"

namespace ditto::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LinkDrop: return "link_drop";
      case FaultKind::LinkLatency: return "link_latency";
      case FaultKind::Partition: return "partition";
      case FaultKind::MachineCrash: return "machine_crash";
      case FaultKind::ServiceCrash: return "service_crash";
      case FaultKind::DiskSlowdown: return "disk_slowdown";
      case FaultKind::RegionPartition: return "region_partition";
      case FaultKind::RegionOutage: return "region_outage";
      case FaultKind::WanDegrade: return "wan_degrade";
    }
    return "?";
}

FaultPlan &
FaultPlan::linkDrop(const std::string &a, const std::string &b,
                    sim::Time start, sim::Time duration,
                    double dropProb)
{
    FaultSpec spec;
    spec.kind = FaultKind::LinkDrop;
    spec.a = a;
    spec.b = b;
    spec.start = start;
    spec.duration = duration;
    spec.magnitude = dropProb;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::linkLatency(const std::string &a, const std::string &b,
                       sim::Time start, sim::Time duration,
                       sim::Time extra)
{
    FaultSpec spec;
    spec.kind = FaultKind::LinkLatency;
    spec.a = a;
    spec.b = b;
    spec.start = start;
    spec.duration = duration;
    spec.extraLatency = extra;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::partition(const std::string &a, const std::string &b,
                     sim::Time start, sim::Time duration)
{
    FaultSpec spec;
    spec.kind = FaultKind::Partition;
    spec.a = a;
    spec.b = b;
    spec.start = start;
    spec.duration = duration;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::machineCrash(const std::string &machine, sim::Time start,
                        sim::Time downFor)
{
    FaultSpec spec;
    spec.kind = FaultKind::MachineCrash;
    spec.a = machine;
    spec.start = start;
    spec.duration = downFor;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::serviceCrash(const std::string &service, sim::Time start,
                        sim::Time downFor)
{
    FaultSpec spec;
    spec.kind = FaultKind::ServiceCrash;
    spec.a = service;
    spec.start = start;
    spec.duration = downFor;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::diskSlowdown(const std::string &machine, sim::Time start,
                        sim::Time duration, double factor)
{
    FaultSpec spec;
    spec.kind = FaultKind::DiskSlowdown;
    spec.a = machine;
    spec.start = start;
    spec.duration = duration;
    spec.magnitude = factor;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::regionPartition(const std::string &a, const std::string &b,
                           sim::Time start, sim::Time duration)
{
    FaultSpec spec;
    spec.kind = FaultKind::RegionPartition;
    spec.a = a;
    spec.b = b;
    spec.start = start;
    spec.duration = duration;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::regionOutage(const std::string &region, sim::Time start,
                        sim::Time downFor)
{
    FaultSpec spec;
    spec.kind = FaultKind::RegionOutage;
    spec.a = region;
    spec.start = start;
    spec.duration = downFor;
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan &
FaultPlan::wanDegrade(const std::string &a, const std::string &b,
                      sim::Time start, sim::Time duration,
                      double dropProb, sim::Time extra)
{
    FaultSpec spec;
    spec.kind = FaultKind::WanDegrade;
    spec.a = a;
    spec.b = b;
    spec.start = start;
    spec.duration = duration;
    spec.magnitude = dropProb;
    spec.extraLatency = extra;
    faults.push_back(std::move(spec));
    return *this;
}

} // namespace ditto::fault
