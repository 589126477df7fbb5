/**
 * @file
 * Profiling session: orchestrates one instrumented run of a service
 * and assembles the platform-independent ServiceProfile.
 *
 * Mirrors the paper's workflow: the service runs under a
 * representative input load; SDE/Valgrind-equivalent observers hook
 * the cores (exact interpretation, no sampling) and the
 * SystemTap-equivalent probe hooks the service; after a warmup, one
 * measured window is collected and normalized per request.
 */

#ifndef DITTO_PROFILE_SESSION_H_
#define DITTO_PROFILE_SESSION_H_

#include "app/deployment.h"
#include "app/service.h"
#include "profile/profile_data.h"
#include "sim/time.h"

namespace ditto::profile {

struct ProfileOptions
{
    sim::Time warmup = sim::milliseconds(150);
    sim::Time window = sim::milliseconds(150);
};

/**
 * Profile a running service. The caller must already have load
 * applied (a LoadGen driving the service or its topology's root).
 */
ServiceProfile profileService(app::Deployment &dep,
                              app::ServiceInstance &svc,
                              const ProfileOptions &opts = {});

} // namespace ditto::profile

#endif // DITTO_PROFILE_SESSION_H_
