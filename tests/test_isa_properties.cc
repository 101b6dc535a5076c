/**
 * @file
 * Parameterized property sweeps over the ISA/packet layers and the
 * NVLS collective across fabric sizes.
 */

#include <gtest/gtest.h>

#include "isa/instr.hh"
#include "noc/packet.hh"
#include "workload/collectives.hh"

using namespace cais;

// --------------------------------------------------------------------
// Every opcode: name is PTX-ish, mode/semantic classification is
// total, and CAIS opcodes always align mode with semantics.
// --------------------------------------------------------------------

class OpcodeSweep : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(OpcodeSweep, ClassificationIsTotalAndConsistent)
{
    Opcode op = GetParam();
    EXPECT_NE(std::string(opcodeName(op)), "?");

    CommMode mode = commMode(op);
    MemSemantic sem = memSemantic(op);

    if (isCais(op)) {
        // The paper's alignment property.
        if (sem == MemSemantic::read)
            EXPECT_EQ(mode, CommMode::pull);
        else
            EXPECT_EQ(mode, CommMode::push);
    }
    if (isMultimem(op)) {
        EXPECT_NE(mode, CommMode::local);
    }
    EXPECT_FALSE(isCais(op) && isMultimem(op));
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeSweep,
    ::testing::Values(Opcode::ldGlobal, Opcode::stGlobal,
                      Opcode::redGlobal, Opcode::multimemSt,
                      Opcode::multimemLdReduce, Opcode::multimemRed,
                      Opcode::ldCais, Opcode::redCais));

// --------------------------------------------------------------------
// Every packet type: default VC class is valid, policing is
// idempotent and never touches non-data classes.
// --------------------------------------------------------------------

class PacketTypeSweep : public ::testing::TestWithParam<PacketType>
{
};

TEST_P(PacketTypeSweep, VcAssignmentAndPolicing)
{
    PacketType t = GetParam();
    VcClass vc = defaultVcClass(t);
    EXPECT_LT(static_cast<int>(vc),
              static_cast<int>(VcClass::numClasses));
    EXPECT_NE(std::string(packetTypeName(t)), "?");

    VcClass once = policedVc(vc, true);
    EXPECT_EQ(policedVc(once, true), once); // idempotent
    EXPECT_EQ(policedVc(vc, false), vc);    // no-op when separate
    if (vc == VcClass::sync || vc == VcClass::control ||
        vc == VcClass::request) {
        EXPECT_EQ(once, vc);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPacketTypes, PacketTypeSweep,
    ::testing::Values(
        PacketType::readReq, PacketType::readResp,
        PacketType::writeReq, PacketType::writeAck,
        PacketType::multimemSt, PacketType::multimemLdReduceReq,
        PacketType::multimemLdReduceResp,
        PacketType::caisLoadReq, PacketType::caisLoadResp,
        PacketType::caisRedReq, PacketType::caisMergedWrite,
        PacketType::groupSyncReq, PacketType::groupSyncRelease,
        PacketType::throttleHint));

TEST(PacketIds, MonotoneAndUniquePerAllocator)
{
    PacketIdAllocator ids;
    std::uint64_t prev = ids.next();
    for (int i = 0; i < 100; ++i) {
        std::uint64_t id = ids.next();
        EXPECT_GT(id, prev);
        prev = id;
    }
    Packet p = makePacket(ids, PacketType::readReq, 0, 1);
    Packet q = makePacket(ids, PacketType::readReq, 0, 1);
    EXPECT_NE(p.id, q.id);
    EXPECT_EQ(ids.issued(), 103u);
}

TEST(PacketIds, AllocatorsAreIndependent)
{
    // Two simulations alive at once must not perturb each other's
    // id streams: ids are per-allocator, not process-global.
    PacketIdAllocator a, b;
    EXPECT_EQ(a.next(), 1u);
    EXPECT_EQ(b.next(), 1u);
    EXPECT_EQ(a.next(), 2u);
    EXPECT_EQ(b.next(), 2u);
    a.reset();
    EXPECT_EQ(a.next(), 1u);
    EXPECT_EQ(b.next(), 3u);
}

// --------------------------------------------------------------------
// NVLS AllReduce across fabric sizes: completes, and bus bandwidth
// stays within physical bounds for every GPU count.
// --------------------------------------------------------------------

class ArGpuSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ArGpuSweep, BusBandwidthWithinPhysicalBounds)
{
    int gpus = GetParam();
    SystemConfig sc;
    sc.fabric.numGpus = gpus;
    sc.fabric.numSwitches = 2;
    sc.gpu.jitterSigma = 0.0;
    sc.gpu.maxStartSkew = 0;
    System sys(sc);
    CollectiveBench b = buildNvlsAllReduce(sys, 8 << 20, 18);
    sys.run();

    double bw = allReduceBusBw(gpus, b.bytes,
                               static_cast<double>(sys.makespan()));
    // Bus bandwidth can approach but not exceed the per-direction
    // link budget times 2(G-1)/(G+1).
    double ceiling = sc.fabric.perGpuBytesPerCycle * 2.0 *
                     (gpus - 1) / (gpus + 1);
    EXPECT_GT(bw, 0.2 * ceiling);
    EXPECT_LE(bw, ceiling * 1.02);
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, ArGpuSweep,
                         ::testing::Values(2, 4, 8, 16));
