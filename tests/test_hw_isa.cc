/**
 * @file
 * Tests for the iform table and instruction clustering.
 */

#include <gtest/gtest.h>

#include "core/inst_clusterer.h"
#include "hw/isa.h"
#include "sim/rng.h"

namespace {

using namespace ditto;
using hw::Isa;

TEST(Isa, TableNonTrivial)
{
    const Isa &isa = Isa::instance();
    EXPECT_GE(isa.size(), 100u);
}

TEST(Isa, LookupByNameRoundTrips)
{
    const Isa &isa = Isa::instance();
    for (hw::Opcode op = 0; op < isa.size(); ++op)
        EXPECT_EQ(isa.opcode(isa.info(op).iform), op);
}

/** Parameterized structural checks over the whole table. */
class IsaRowTest : public ::testing::TestWithParam<hw::Opcode>
{
};

TEST_P(IsaRowTest, RowInvariants)
{
    const Isa &isa = Isa::instance();
    const hw::InstInfo &info = isa.info(GetParam());
    EXPECT_FALSE(info.iform.empty());
    EXPECT_GE(info.uops, 1);
    EXPECT_GE(info.latency, 1);
    EXPECT_NE(info.ports, 0) << info.iform;
    // Loads must be issueable on load AGU ports; plain stores on
    // store ports (RMW forms carry both flags and use load ports).
    if (info.isLoad) {
        EXPECT_NE(info.ports & (hw::kPort2 | hw::kPort3), 0)
            << info.iform;
    } else if (info.isStore) {
        EXPECT_NE(info.ports & (hw::kPort4 | hw::kPort7), 0)
            << info.iform;
    }
    // Branches are control-class.
    if (info.isBranch) {
        EXPECT_EQ(info.cls, hw::InstClass::Control) << info.iform;
    }
    // REP forms must declare a per-element cost.
    if (info.cls == hw::InstClass::RepString) {
        EXPECT_GT(info.repPerElem, 0) << info.iform;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, IsaRowTest,
    ::testing::Range<hw::Opcode>(0,
        static_cast<hw::Opcode>(Isa::instance().size())));

TEST(Isa, SpecialtyCostsDifferentiated)
{
    const Isa &isa = Isa::instance();
    // The paper's example: CRC32 is 3 cycles, port-1 only; plain adds
    // are 1 cycle on any ALU port.
    const auto &crc = isa.info(isa.opcode("CRC32_GPR64_GPR64"));
    const auto &add = isa.info(isa.opcode("ADD_GPR64_GPR64"));
    EXPECT_EQ(crc.latency, 3);
    EXPECT_EQ(crc.ports, hw::kPort1);
    EXPECT_EQ(add.latency, 1);
    EXPECT_GT(std::popcount(static_cast<unsigned>(add.ports)), 2);
    // Division is long-latency and single-ported.
    const auto &divq = isa.info(isa.opcode("DIV_GPR64"));
    EXPECT_GT(divq.latency, 20);
    // LOCK forms cost tens of cycles.
    const auto &lock = isa.info(isa.opcode("LOCK_ADD_MEM64_GPR64"));
    EXPECT_GE(lock.latency, 15);
}

TEST(Isa, ClassQueries)
{
    const Isa &isa = Isa::instance();
    const auto divs = isa.opcodesOfClass(hw::InstClass::IntDiv);
    EXPECT_GE(divs.size(), 2u);
    for (hw::Opcode op : divs)
        EXPECT_EQ(isa.info(op).cls, hw::InstClass::IntDiv);
    EXPECT_TRUE(isa.touchesMemory(isa.opcode("MOV_GPR64_MEM64")));
    EXPECT_FALSE(isa.touchesMemory(isa.opcode("ADD_GPR64_GPR64")));
}

TEST(Isa, NamesUnique)
{
    const Isa &isa = Isa::instance();
    std::set<std::string_view> names;
    for (hw::Opcode op = 0; op < isa.size(); ++op)
        names.insert(isa.info(op).iform);
    EXPECT_EQ(names.size(), isa.size());
}

// ---------------------------------------------------------------------------
// InstClusterer
// ---------------------------------------------------------------------------

TEST(InstClusterer, RolesNeverMix)
{
    std::vector<double> counts(Isa::instance().size(), 1.0);
    core::InstClusterer clusterer(counts);
    for (const auto &cluster : clusterer.clusters()) {
        for (hw::Opcode op : cluster.members)
            EXPECT_EQ(core::instRoleOf(op), cluster.role);
        // Medoid belongs to the cluster.
        EXPECT_NE(std::find(cluster.members.begin(),
                            cluster.members.end(), cluster.medoid),
                  cluster.members.end());
    }
}

TEST(InstClusterer, ClustersAreNonTrivialPartition)
{
    std::vector<double> counts(Isa::instance().size(), 1.0);
    core::InstClusterer clusterer(counts);
    std::size_t total = 0;
    for (const auto &cluster : clusterer.clusters())
        total += cluster.members.size();
    EXPECT_EQ(total, Isa::instance().size());
    // More than one cluster per role family but far fewer than one
    // per iform (i.e., actual grouping happened).
    EXPECT_GT(clusterer.clusters().size(), 6u);
    EXPECT_LT(clusterer.clusters().size(), Isa::instance().size());
}

TEST(InstClusterer, SamplingFollowsWeights)
{
    const Isa &isa = Isa::instance();
    std::vector<double> counts(isa.size(), 0.0);
    // Weight only integer divide: ALU samples must be long-latency.
    counts[isa.opcode("DIV_GPR64")] = 100.0;
    core::InstClusterer clusterer(counts);
    sim::Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const hw::Opcode op = clusterer.sample(core::InstRole::Alu, rng);
        EXPECT_EQ(isa.info(op).cls, hw::InstClass::IntDiv);
    }
}

TEST(InstClusterer, FallbackWhenRoleUnprofiled)
{
    std::vector<double> counts(Isa::instance().size(), 0.0);
    core::InstClusterer clusterer(counts);
    sim::Rng rng(4);
    // No weight anywhere: canonical fallbacks returned, never crash.
    EXPECT_EQ(Isa::instance().info(
        clusterer.sample(core::InstRole::Load, rng)).isLoad, true);
    EXPECT_EQ(Isa::instance().info(
        clusterer.sample(core::InstRole::Store, rng)).isStore, true);
    EXPECT_EQ(Isa::instance().info(
        clusterer.sample(core::InstRole::Branch, rng)).isBranch, true);
}

TEST(InstClusterer, ObfuscationMedoidCanDiffer)
{
    const Isa &isa = Isa::instance();
    std::vector<double> counts(isa.size(), 0.0);
    // Profile a niche arithmetic form; the medoid of its cluster is a
    // *representative*, not necessarily the profiled opcode itself --
    // i.e., resource-equivalent substitution is possible.
    counts[isa.opcode("NEG_GPR64")] = 10.0;
    core::InstClusterer clusterer(counts);
    sim::Rng rng(5);
    const hw::Opcode op = clusterer.sample(core::InstRole::Alu, rng);
    const auto &info = isa.info(op);
    EXPECT_EQ(info.cls, hw::InstClass::IntArith);
    EXPECT_EQ(info.latency, 1);
}

} // namespace
