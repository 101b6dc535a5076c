/** @file Tests for the System assembly and kernel execution engine. */

#include <gtest/gtest.h>

#include "runtime/system.hh"

using namespace cais;

namespace
{

SystemConfig
smallConfig(int gpus = 2, int switches = 1)
{
    SystemConfig c;
    c.fabric.numGpus = gpus;
    c.fabric.numSwitches = switches;
    c.gpu.numSms = 4;
    c.gpu.jitterSigma = 0.0;
    c.gpu.maxStartSkew = 0;
    c.gpu.kernelLaunchOverhead = 0;
    return c;
}

} // namespace

TEST(System, TensorLayouts)
{
    System sys(smallConfig(4));

    TensorInfo &sharded = sys.defineTensor(
        "s", TensorLayout::rowShardedHome, 10 * 128, 256, 2, 128, 4);
    EXPECT_EQ(sharded.numTiles, 10);
    // Balanced shards: 3,3,2,2.
    EXPECT_EQ(sharded.tileOwner(0), 0);
    EXPECT_EQ(sharded.tileOwner(2), 0);
    EXPECT_EQ(sharded.tileOwner(3), 1);
    EXPECT_EQ(sharded.tileOwner(6), 2);
    EXPECT_EQ(sharded.tileOwner(7), 2);
    EXPECT_EQ(sharded.tileOwner(8), 3);
    EXPECT_EQ(sharded.tileOwner(9), 3);
    EXPECT_EQ(addrHomeGpu(sharded.tileAddr(7)), 2);

    TensorInfo &rep = sys.defineTensor(
        "r", TensorLayout::replicated, 4 * 128, 64, 2, 128, 1);
    EXPECT_EQ(rep.tileAddr(1) - rep.tileAddr(0), rep.bytesPerTile);

    TensorInfo &priv = sys.defineTensor(
        "p", TensorLayout::perGpuPrivate, 2 * 128, 64, 2, 128, 1);
    EXPECT_NE(priv.tileAddrAt(0, 0), priv.tileAddrAt(1, 0));
    EXPECT_EQ(addrHomeGpu(priv.tileAddrAt(3, 0)), 3);
}

TEST(System, LocalAllocationsAreDisjoint)
{
    System sys(smallConfig());
    Addr a = sys.allocLocal(0, 10000);
    Addr b = sys.allocLocal(0, 10000);
    EXPECT_GE(b - a, 10000u);
    EXPECT_EQ(addrHomeGpu(a), 0);
    Addr s1 = sys.allocShared(5000);
    Addr s2 = sys.allocShared(5000);
    EXPECT_GE(s2 - s1, 5000u);
}

TEST(System, GroupIdsAreUnique)
{
    System sys(smallConfig());
    GroupId a = sys.allocGroups(10);
    GroupId b = sys.allocGroups(5);
    EXPECT_EQ(b, a + 10);
}

TEST(System, RunsComputeOnlyKernel)
{
    System sys(smallConfig());
    KernelDesc k;
    k.name = "compute";
    k.grids.resize(2);
    for (GpuId g = 0; g < 2; ++g)
        for (int i = 0; i < 16; ++i) {
            TbDesc tb;
            tb.computeCycles = 1000;
            k.grids[g].push_back(tb);
        }
    sys.addKernel(std::move(k));
    sys.run();
    // 16 TBs over 8 slots = 2 waves of 1000 cycles.
    EXPECT_EQ(sys.makespan(), 2000u);
}

TEST(System, KernelBarrierOrdersExecution)
{
    System sys(smallConfig());
    auto make = [&](const char *name) {
        KernelDesc k;
        k.name = name;
        k.grids.resize(2);
        TbDesc tb;
        tb.computeCycles = 500;
        k.grids[0].push_back(tb);
        k.grids[1].push_back(tb);
        return k;
    };
    KernelDesc a = make("a");
    KernelId ka = sys.addKernel(std::move(a));
    KernelDesc b = make("b");
    b.kernelDeps = {ka};
    KernelId kb = sys.addKernel(std::move(b));
    sys.run();
    EXPECT_EQ(sys.kernelStartTime(kb), sys.kernelFinishTime(ka));
    EXPECT_EQ(sys.makespan(), 1000u);
}

TEST(System, TileDepsLaunchConsumersEarly)
{
    System sys(smallConfig());
    TensorInfo &t = sys.defineTensor(
        "x", TensorLayout::perGpuPrivate, 2 * 128, 64, 2, 128, 1);

    // Producer: tile 0 fast (100 cyc), tile 1 slow (1000 cyc).
    KernelDesc prod;
    prod.name = "prod";
    prod.grids.resize(2);
    prod.producesTracker = t.tracker;
    for (GpuId g = 0; g < 2; ++g)
        for (int i = 0; i < 2; ++i) {
            TbDesc tb;
            tb.computeCycles = i == 0 ? 100 : 1000;
            tb.producesTile = i;
            tb.produceBytes = t.bytesPerTile;
            prod.grids[g].push_back(tb);
        }
    sys.addKernel(std::move(prod));

    // Consumer with per-tile deps: its tile-0 TB must not wait for
    // the slow producer tile.
    KernelDesc cons;
    cons.name = "cons";
    cons.grids.resize(2);
    for (GpuId g = 0; g < 2; ++g)
        for (int i = 0; i < 2; ++i) {
            TbDesc tb;
            tb.computeCycles = 10;
            tb.deps.push_back(TileRef{t.tracker, i, g});
            cons.grids[g].push_back(tb);
        }
    sys.addKernel(std::move(cons));
    sys.run();
    // Pipeline: 1000 (slow tile) + 10 (its consumer), not 1010+100.
    EXPECT_EQ(sys.makespan(), 1010u);
}

TEST(System, PushedDataCompletesTrackerRemotely)
{
    System sys(smallConfig());
    TensorInfo &out = sys.defineTensor(
        "o", TensorLayout::rowShardedHome, 2 * 128, 64, 2, 128, 2);

    // Each GPU owns one tile; the peer pushes its contribution.
    KernelDesc k;
    k.name = "push";
    k.grids.resize(2);
    k.producesTracker = out.tracker;
    for (GpuId g = 0; g < 2; ++g) {
        for (int i = 0; i < 2; ++i) {
            TbDesc tb;
            tb.computeCycles = 50;
            if (out.tileOwner(i) == g) {
                tb.producesTile = i;
                tb.produceBytes = out.bytesPerTile;
            } else {
                RemoteOp op;
                op.kind = RemoteOpKind::plainWrite;
                op.base = out.tileAddr(i);
                op.bytes = out.bytesPerTile;
                tb.pushOps.push_back(op);
            }
            k.grids[g].push_back(tb);
        }
    }
    sys.addKernel(std::move(k));
    sys.run();
    EXPECT_TRUE(sys.tracker(out.tracker).complete());
    EXPECT_GT(sys.makespan(), 500u); // link latency is on the path
}

TEST(System, StartSkewStaggersUncoordinatedSources)
{
    SystemConfig cfg = smallConfig();
    cfg.gpu.maxStartSkew = 10 * cyclesPerUs;
    System sys(cfg);
    KernelDesc k;
    k.name = "src";
    k.grids.resize(2);
    TbDesc tb;
    tb.computeCycles = 10;
    k.grids[0].push_back(tb);
    k.grids[1].push_back(tb);
    sys.addKernel(std::move(k));
    sys.run();
    // The straggling GPU delays completion well beyond the compute.
    EXPECT_GT(sys.makespan(), 1000u);
}

TEST(SystemDeathTest, UnsatisfiableDependencyReportsDeadlock)
{
    System sys(smallConfig());
    TensorInfo &t = sys.defineTensor(
        "never", TensorLayout::perGpuPrivate, 128, 64, 2, 128, 1);
    KernelDesc k;
    k.name = "waiter";
    k.grids.resize(2);
    TbDesc tb;
    tb.computeCycles = 10;
    tb.deps.push_back(TileRef{t.tracker, 0, 0});
    k.grids[0].push_back(tb);
    sys.addKernel(std::move(k));
    EXPECT_DEATH(sys.run(), "deadlock");
}

TEST(SystemDeathTest, EventBudgetExhaustionReportsTheStalledMachine)
{
    // A run that cannot finish inside maxEvents stops with the stall
    // report: every unfinished kernel, then the switch and GPU state.
    SystemConfig c = smallConfig();
    c.maxEvents = 1;
    System sys(c);
    KernelDesc k;
    k.name = "budget";
    k.grids.resize(2);
    TbDesc tb;
    tb.computeCycles = 10;
    k.grids[0].push_back(tb);
    k.grids[1].push_back(tb);
    sys.addKernel(std::move(k));
    EXPECT_DEATH(sys.run(),
                 "kernel 0 \\(budget\\): launched=.*"
                 "switch 0: nvls pending=0.*"
                 "gpu 1: sched pending=.*"
                 "simulation deadlocked or event budget exhausted");
}
