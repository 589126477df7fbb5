/**
 * @file
 * Server platform descriptions (Table 1 of the paper) plus the
 * microarchitectural knobs of the machine model.
 *
 * Three presets mirror the evaluation cluster:
 *   - Platform A: Skylake Gold 6152, 2.10 GHz, 22 cores/socket x2,
 *     1MB L2, 30.25MB LLC, SSD, 10Gbe
 *   - Platform B: Haswell E5-2660 v3, 2.60 GHz, 10 cores x2,
 *     256KB L2, 25MB LLC, HDD, 1Gbe
 *   - Platform C: Skylake E3-1240 v5, 3.50 GHz, 4 cores x1,
 *     256KB L2, 8MB LLC, HDD, 1Gbe
 */

#ifndef DITTO_HW_PLATFORM_H_
#define DITTO_HW_PLATFORM_H_

#include <cstdint>
#include <string>

#include "hw/cache.h"

namespace ditto::hw {

/** Storage device families with very different latency profiles. */
enum class DiskKind : std::uint8_t
{
    Ssd,
    Hdd,
};

/** Complete description of one server platform. */
struct PlatformSpec
{
    std::string name;
    std::string cpuModel;
    std::string cpuFamily;

    // --- CPU ---
    double baseFrequencyGhz = 2.1;
    unsigned coresPerSocket = 22;
    unsigned sockets = 2;
    bool smtEnabled = true;

    // Pipeline parameters.
    unsigned issueWidth = 4;           //!< fused uops / cycle
    unsigned mispredictPenalty = 16;   //!< cycles
    unsigned mlp = 10;                 //!< outstanding demand misses
    unsigned predictorLog2Entries = 14;
    unsigned predictorHistoryBits = 12;
    /** Fraction of an i-miss latency the frontend cannot hide. */
    double frontendStallFactor = 0.7;

    // --- memory hierarchy ---
    std::uint64_t l1iBytes = 32 * 1024;
    unsigned l1iWays = 8;
    std::uint64_t l1dBytes = 32 * 1024;
    unsigned l1dWays = 8;
    std::uint64_t l2Bytes = 1024 * 1024;
    unsigned l2Ways = 16;
    std::uint64_t llcBytes = 31719424;  //!< 30.25 MB
    unsigned llcWays = 11;
    MemLatency latency;
    bool prefetchEnabled = true;

    std::uint64_t ramBytes = 192ull * 1024 * 1024 * 1024;
    unsigned ramMhz = 2666;

    // --- devices ---
    DiskKind disk = DiskKind::Ssd;
    std::uint64_t diskBytes = 1024ull * 1024 * 1024 * 1024;
    double nicGbps = 10.0;

    /** Total hardware threads exposed to the OS model. */
    unsigned
    totalCores() const
    {
        return coresPerSocket * sockets;
    }

    /** Cycles -> nanoseconds at the configured frequency. */
    double
    cyclesToNs(double cycles) const
    {
        return cycles / baseFrequencyGhz;
    }
};

/** Table 1, Platform A (profiling + main validation platform). */
PlatformSpec platformA();

/** Table 1, Platform B (older Haswell generation). */
PlatformSpec platformB();

/** Table 1, Platform C (small single-socket Skylake). */
PlatformSpec platformC();

/**
 * Derive a power-management variant: override the active core count
 * and frequency (Fig. 11's core/frequency scaling study).
 */
PlatformSpec withCoresAndFrequency(const PlatformSpec &base,
                                   unsigned cores, double ghz);

} // namespace ditto::hw

#endif // DITTO_HW_PLATFORM_H_
