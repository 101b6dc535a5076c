/**
 * @file
 * Tests for the GPU hub through a real 2-GPU fabric: chunking, job
 * completion semantics, read service, write landing + tracking,
 * injection windows, the CAIS load cap, and throttle-hint pauses.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_core.hh"
#include "runtime/system.hh"

using namespace cais;

namespace
{

struct HubRig
{
    SystemConfig sc;
    std::unique_ptr<System> sys;

    explicit HubRig(int gpus = 2)
    {
        sc.fabric.numGpus = gpus;
        sc.fabric.numSwitches = 1;
        sc.gpu.numSms = 2;
        sc.gpu.jitterSigma = 0.0;
        sc.gpu.maxStartSkew = 0;
        sys = std::make_unique<System>(sc);
    }

    GpuHub &hub(GpuId g) { return sys->gpu(g).hub(); }
    EventQueue &eq() { return sys->eq(); }
};

} // namespace

TEST(Hub, ChunkifySplitsAtGranularity)
{
    HubRig rig;
    RemoteOp op;
    op.kind = RemoteOpKind::caisLoad;
    op.base = makeAddr(1, 0x1000);
    op.bytes = 3 * 4096 + 100;
    op.expected = 1;
    auto chunks = rig.hub(0).chunkify(op);
    ASSERT_EQ(chunks.size(), 4u);
    EXPECT_EQ(chunks[0].bytes, 4096u);
    EXPECT_EQ(chunks[3].bytes, 100u);
    EXPECT_EQ(chunks[2].addr, op.base + 2 * 4096);
    for (const auto &c : chunks)
        EXPECT_EQ(c.expected, 1);
}

TEST(Hub, EmptyJobCompletesImmediately)
{
    HubRig rig;
    bool injected = false, complete = false;
    auto job = std::make_unique<HubJob>();
    job->onInjected = [&] { injected = true; };
    job->onComplete = [&] { complete = true; };
    rig.hub(0).submit(std::move(job));
    EXPECT_TRUE(injected);
    EXPECT_TRUE(complete);
    EXPECT_TRUE(rig.hub(0).idle());
}

TEST(Hub, PlainLoadRoundTrip)
{
    HubRig rig;
    bool complete = false;
    auto job = std::make_unique<HubJob>();
    RemoteOp op;
    op.kind = RemoteOpKind::plainLoad;
    op.base = makeAddr(1, 0x2000);
    op.bytes = 8192;
    for (auto &c : rig.hub(0).chunkify(op))
        job->chunks.push_back(c);
    job->onComplete = [&] { complete = true; };
    rig.hub(0).submit(std::move(job));
    rig.eq().runAll();
    EXPECT_TRUE(complete);
    EXPECT_TRUE(rig.hub(0).idle());
    // The peer served the data from its HBM.
    EXPECT_EQ(rig.hub(1).bytesServed(), 8192u);
}

TEST(Hub, PlainWriteLandsAndTracks)
{
    HubRig rig;
    TensorInfo &t = rig.sys->defineTensor(
        "dst", TensorLayout::rowShardedHome, 2 * 128, 16, 2, 128, 1);
    // Tile 1 is homed on GPU 1; write it from GPU 0.
    auto job = std::make_unique<HubJob>();
    RemoteOp op;
    op.kind = RemoteOpKind::plainWrite;
    op.base = t.tileAddr(1);
    op.bytes = t.bytesPerTile;
    for (auto &c : rig.hub(0).chunkify(op))
        job->chunks.push_back(c);
    rig.hub(0).submit(std::move(job));
    rig.eq().runAll();
    EXPECT_TRUE(rig.sys->tracker(t.tracker).ready(1, 1));
    EXPECT_FALSE(rig.sys->tracker(t.tracker).ready(0, 1));
}

TEST(Hub, PushOnlyCaisRedLeavesHubIdle)
{
    // caisRed gets no reply, so it must leave no reply-table entry
    // behind: idle() also requires that table to be empty.
    HubRig rig;
    auto job = std::make_unique<HubJob>();
    RemoteOp op;
    op.kind = RemoteOpKind::caisRed;
    op.base = makeAddr(1, 0x40000);
    op.bytes = 3 * 4096;
    op.expected = 1;
    for (auto &c : rig.hub(0).chunkify(op))
        job->chunks.push_back(c);
    bool complete = false;
    job->onComplete = [&] { complete = true; };
    rig.hub(0).submit(std::move(job));
    rig.eq().runAll();
    EXPECT_TRUE(complete);
    EXPECT_EQ(rig.hub(0).chunksInjected(), 3u);
    EXPECT_TRUE(rig.hub(0).idle());
}

TEST(Hub, MixedPushAndPullJobsDrainTheReplyTable)
{
    // Push-only chunks interleave with reply-expecting ones, so the
    // reply table holds gaps while loads are out; every load still
    // finds its job and the table drains.
    HubRig rig;
    int complete = 0;
    for (int j = 0; j < 6; ++j) {
        auto job = std::make_unique<HubJob>();
        RemoteOp op;
        op.kind = j % 2 ? RemoteOpKind::plainLoad
                        : RemoteOpKind::plainWrite;
        op.base = makeAddr(1, 0x50000 + 0x10000 * j);
        op.bytes = 4 * 4096;
        for (auto &c : rig.hub(0).chunkify(op))
            job->chunks.push_back(c);
        job->onComplete = [&] { ++complete; };
        rig.hub(0).submit(std::move(job));
    }
    EXPECT_FALSE(rig.hub(0).idle());
    rig.eq().runAll();
    EXPECT_EQ(complete, 6);
    EXPECT_EQ(rig.hub(0).responsesReceived(), 12u);
    EXPECT_TRUE(rig.hub(0).idle());
}

TEST(Hub, InjectionWindowBacklogsJobs)
{
    HubRig rig;
    // A burst far larger than the window queues but still drains.
    auto job = std::make_unique<HubJob>();
    RemoteOp op;
    op.kind = RemoteOpKind::plainWrite;
    op.base = makeAddr(1, 0x10000);
    op.bytes = static_cast<std::uint64_t>(
                   rig.sc.gpu.maxInflightChunks + 64) *
               4096;
    for (auto &c : rig.hub(0).chunkify(op))
        job->chunks.push_back(c);
    bool injected = false;
    job->onInjected = [&] { injected = true; };
    rig.hub(0).submit(std::move(job));
    EXPECT_FALSE(injected); // window holds part of the burst back
    EXPECT_LE(rig.hub(0).inflight(), rig.sc.gpu.maxInflightChunks);
    rig.eq().runAll();
    EXPECT_TRUE(injected);
    EXPECT_TRUE(rig.hub(0).idle());
}

TEST(Hub, CaisLoadCapLimitsOutstanding)
{
    HubRig rig;
    int cap = rig.sc.gpu.maxCaisLoadOutstanding;
    auto job = std::make_unique<HubJob>();
    job->group = 1;
    RemoteOp op;
    op.kind = RemoteOpKind::caisLoad;
    op.base = makeAddr(1, 0x20000);
    op.bytes = static_cast<std::uint64_t>(cap + 100) * 4096;
    op.expected = 1;
    for (auto &c : rig.hub(0).chunkify(op))
        job->chunks.push_back(c);
    bool complete = false;
    job->onComplete = [&] { complete = true; };
    rig.hub(0).submit(std::move(job));
    // Before any response can arrive, at most `cap` loads are out.
    rig.eq().runUntil(100);
    EXPECT_LE(rig.hub(0).chunksInjected(),
              static_cast<std::uint64_t>(cap));
    rig.eq().runAll();
    EXPECT_TRUE(complete);
}

TEST(Hub, ThrottleHintPausesGroupTraffic)
{
    HubRig rig;
    GpuHub &hub = rig.hub(0);

    // Deliver a synthetic throttle hint for group 7, then submit
    // mergeable traffic of that group: it must not inject before the
    // pause deadline.
    PacketIdAllocator ids;
    Packet hint = makePacket(ids, PacketType::throttleHint, 2, 0);
    hint.group = 7;
    hint.cookie = 5000; // pause cycles
    rig.sys->fabric().switchChip(0).sendToGpu(std::move(hint));
    rig.eq().runUntil(2000);
    EXPECT_EQ(hub.throttlePauses(), 1u);

    auto job = std::make_unique<HubJob>();
    job->group = 7;
    RemoteOp op;
    op.kind = RemoteOpKind::caisRed;
    op.base = makeAddr(1, 0x30000);
    op.bytes = 4096;
    op.expected = 1;
    for (auto &c : hub.chunkify(op))
        job->chunks.push_back(c);
    hub.submit(std::move(job));

    std::uint64_t before = hub.chunksInjected();
    rig.eq().runUntil(4000); // still inside the pause window
    EXPECT_EQ(hub.chunksInjected(), before);
    rig.eq().runAll();
    EXPECT_GT(hub.chunksInjected(), before);
}

TEST(Hub, SyncPacketsBypassTheWindow)
{
    HubRig rig;
    Synchronizer &sync = rig.sys->gpu(0).synchronizer();
    Synchronizer &sync1 = rig.sys->gpu(1).synchronizer();
    int released = 0;
    sync.requestSync(42, SyncPhase::preLaunch, 2,
                     [&] { ++released; });
    sync1.requestSync(42, SyncPhase::preLaunch, 2,
                      [&] { ++released; });
    rig.eq().runAll();
    EXPECT_EQ(released, 2);
    EXPECT_EQ(sync.pendingCount(), 0u);
}
