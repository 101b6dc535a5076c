#include "gpu/hub.hh"

#include <algorithm>
#include <utility>

#include "analysis/causal_profile.hh"
#include "common/log.hh"
#include "gpu/synchronizer.hh"

namespace cais
{

namespace
{

/** Chunks whose requests draw a response or ack back to the hub. */
bool
getsReply(RemoteOpKind kind)
{
    return isPullKind(kind) || kind == RemoteOpKind::nvlsSt;
}

} // namespace

GpuHub::GpuHub(EventQueue &eq_, Fabric &fabric_, GpuId gpu_,
               const GpuParams &params)
    : eq(eq_), fabric(fabric_), gpu(gpu_),
      chunkBytes(params.chunkBytes),
      maxInflight(params.maxInflightChunks),
      maxCaisLoads(params.maxCaisLoadOutstanding),
      mem(eq_, params.hbmBytesPerCycle, params.hbmLatency)
{
    // Watch our uplinks so the injection window tracks actual wire
    // occupancy (each dequeue = one of our packets started the wire).
    for (int i = 0; i < fabric.uplinksPerGpu(); ++i) {
        fabric.uplink(gpu, i).setDequeueCallback(
            [this](int) { onWireInjected(); });
    }
}

void
GpuHub::setProfiler(CausalProfiler *pr)
{
    prof = pr;
    mem.setProfiler(pr, profnode::hbm(gpu));
}

std::vector<HubJob::Chunk>
GpuHub::chunkify(const RemoteOp &op) const
{
    std::vector<HubJob::Chunk> out;
    std::uint64_t off = 0;
    while (off < op.bytes) {
        std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunkBytes, op.bytes - off));
        out.push_back(HubJob::Chunk{op.kind, op.base + off, n,
                                    op.expected, op.protocolPad});
        off += n;
    }
    return out;
}

void
GpuHub::submit(std::unique_ptr<HubJob> job)
{
    std::uint64_t id = nextJobId++;
    JobState &js = jobs.emplace_back();
    js.job = std::move(job);
    js.submitAt = eq.now();
    js.awaitingInject = static_cast<int>(js.job->chunks.size());

    for (const auto &c : js.job->chunks) {
        if (getsReply(c.kind))
            ++js.awaitingReply;
    }

    if (js.job->chunks.empty()) {
        finishInject(js);
        maybeFinish(id);
        return;
    }

    issueQueue.push_back(id);
    pump();
}

GpuHub::JobState *
GpuHub::findJob(std::uint64_t job_id)
{
    // Ids below jobBase wrap to huge offsets and miss the table.
    std::uint64_t off = job_id - jobBase;
    if (off >= jobs.size())
        return nullptr;
    JobState &js = jobs[off];
    return js.job ? &js : nullptr;
}

Packet
GpuHub::newPacket(PacketType t, int dst)
{
    return makePacket(fabric.packetIds(), t, gpu, dst);
}

void
GpuHub::sendSyncReq(GroupId group, SyncPhase phase, int expected)
{
    Packet pkt = newPacket(PacketType::groupSyncReq, invalidId);
    pkt.group = group;
    pkt.cookie = static_cast<std::uint64_t>(phase);
    pkt.expected = expected;
    pkt.issuerGpu = gpu;
    pkt.dst = fabric.syncNode(gpu, group);
    wireOrder.push_back(0); // non-job traffic
    fabric.sendFromGpu(gpu, std::move(pkt));
}

void
GpuHub::pump()
{
    // Injection may complete synchronously (the link's dequeue
    // callback fires inside send()), which re-invokes pump(); the
    // guard keeps a single loop in control of the job cursors.
    if (pumping)
        return;
    pumping = true;
    pumpScheduled = false;

    Cycle now = eq.now();
    std::size_t rotations = issueQueue.size();
    Cycle earliest_resume = 0;

    while (inflightChunks < maxInflight && !issueQueue.empty()) {
        std::uint64_t id = issueQueue.front();
        JobState *jsp = findJob(id);
        if (!jsp)
            panic("hub %d: queued job %llu is not live", gpu,
                  static_cast<unsigned long long>(id));
        JobState &js = *jsp;

        RemoteOpKind next_kind = js.job->chunks[js.nextChunk].kind;

        // Outstanding-request throttling (Sec. V-C.2): mergeable
        // loads are capped so the switch merging tables track one
        // GPU's bounded working set.
        if (next_kind == RemoteOpKind::caisLoad &&
            caisLoadsOutstanding >= maxCaisLoads) {
            issueQueue.pop_front();
            issueQueue.push_back(id);
            if (rotations == 0 || --rotations == 0)
                break; // resumes when a response arrives
            continue;
        }

        // TB-aware request throttling: pause mergeable traffic of a
        // hinted group until the deadline.
        auto pit = pausedGroups.find(js.job->group);
        if (pit != pausedGroups.end()) {
            if (now >= pit->second) {
                pausedGroups.erase(pit);
            } else if (isCaisKind(next_kind)) {
                issueQueue.pop_front();
                issueQueue.push_back(id);
                if (earliest_resume == 0 ||
                    pit->second < earliest_resume)
                    earliest_resume = pit->second;
                if (rotations == 0 || --rotations == 0)
                    break; // every queued job is paused
                continue;
            }
        }

        // Advance the cursor before injecting: injectChunk can
        // trigger nested wire events that must observe a consistent
        // cursor. Chunks round-robin across a small window of jobs
        // (concurrent warps interleave their streams), which spreads
        // switch ports while tiles still complete progressively.
        HubJob::Chunk chunk = js.job->chunks[js.nextChunk];
        ++js.nextChunk;
        issueQueue.pop_front();
        if (js.nextChunk < js.job->chunks.size()) {
            std::size_t pos = std::min<std::size_t>(
                issueWindow - 1, issueQueue.size());
            issueQueue.insert(issueQueue.begin() +
                                  static_cast<std::ptrdiff_t>(pos),
                              id);
        }
        injectChunk(id, js, chunk);
        checkInjectDone(id);
    }

    if (earliest_resume > now && !pumpScheduled) {
        pumpScheduled = true;
        eq.schedule(earliest_resume, [this] { pump(); });
    }
    pumping = false;
}

void
GpuHub::checkInjectDone(std::uint64_t job_id)
{
    JobState *js = findJob(job_id);
    if (js && !js->injectedAll && js->awaitingInject <= 0 &&
        js->nextChunk == js->job->chunks.size()) {
        finishInject(*js);
        maybeFinish(job_id);
    }
}

void
GpuHub::injectChunk(std::uint64_t job_id, JobState &js,
                    const HubJob::Chunk &c)
{
    std::uint64_t cookie = nextCookie++;

    Packet pkt;
    switch (c.kind) {
      case RemoteOpKind::caisLoad:
        pkt = newPacket(PacketType::caisLoadReq, invalidId);
        pkt.reqBytes = c.bytes;
        pkt.dst = fabric.mergeNode(gpu, c.addr);
        break;
      case RemoteOpKind::plainLoad:
        pkt = newPacket(PacketType::readReq, addrHomeGpu(c.addr));
        pkt.reqBytes = c.bytes;
        break;
      case RemoteOpKind::nvlsLdReduce:
        pkt = newPacket(PacketType::multimemLdReduceReq, invalidId);
        pkt.reqBytes = c.bytes;
        pkt.dst = fabric.mergeNode(gpu, c.addr);
        break;
      case RemoteOpKind::nvlsSt:
        pkt = newPacket(PacketType::multimemSt, invalidId);
        pkt.payloadBytes = c.bytes;
        pkt.dst = fabric.mergeNode(gpu, c.addr);
        break;
      case RemoteOpKind::caisRed:
        pkt = newPacket(PacketType::caisRedReq, invalidId);
        pkt.payloadBytes = c.bytes;
        pkt.dst = fabric.mergeNode(gpu, c.addr);
        break;
      case RemoteOpKind::plainWrite:
        pkt = newPacket(PacketType::writeReq, addrHomeGpu(c.addr));
        pkt.payloadBytes = c.bytes;
        break;
      default:
        panic("bad remote op kind");
    }

    pkt.addr = c.addr;
    pkt.expected = c.expected;
    if (c.protocolPad) {
        if (pkt.payloadBytes > 0)
            pkt.padBytes = c.bytes / protocolPadDivisor;
        else
            pkt.padResponse = true; // pad rides on the data response
    }
    pkt.issuerGpu = gpu;
    pkt.kernel = js.job->kernel;
    pkt.tb = js.job->tb;
    pkt.group = js.job->group;
    pkt.cookie = cookie;

    if (getsReply(c.kind)) {
        // Zero-fill the cookies of push-only chunks issued since the
        // last reply-expecting one; the table starts afresh at this
        // cookie when nothing is pending.
        if (cookieToJob.empty())
            cookieBase = cookie;
        while (cookieBase + cookieToJob.size() < cookie)
            cookieToJob.push_back(0);
        cookieToJob.push_back(job_id);
    }

    if (c.kind == RemoteOpKind::caisLoad)
        ++caisLoadsOutstanding;
    ++inflightChunks;
    injected.inc();
    wireOrder.push_back(job_id);
    if (prof) {
        // Injection-backpressure edge: the chunk sat behind the hub's
        // in-flight window since job submission; provenance points at
        // the submitting TB so the walk telescopes into compute.
        prof->record(profnode::hubQueue(gpu),
                     WaitClass::hubInjection, js.submitAt, eq.now(),
                     profnode::tb(js.job->kernel, gpu, js.job->tb),
                     js.submitAt);
        CausalProfiler::ScopedCause sc(
            prof, profnode::hubQueue(gpu), eq.now());
        fabric.sendFromGpu(gpu, std::move(pkt));
        return;
    }
    fabric.sendFromGpu(gpu, std::move(pkt));
}

void
GpuHub::onWireInjected()
{
    if (wireOrder.empty())
        panic("hub %d: wire event with empty order queue", gpu);
    std::uint64_t job_id = wireOrder.front();
    wireOrder.pop_front();
    if (job_id == 0)
        return; // sync or service traffic: not window-tracked

    --inflightChunks;
    if (JobState *js = findJob(job_id)) {
        --js->awaitingInject;
        checkInjectDone(job_id);
    }
    pump();
}

void
GpuHub::finishInject(JobState &js)
{
    js.injectedAll = true;
    if (js.job->onInjected)
        js.job->onInjected();
}

void
GpuHub::maybeFinish(std::uint64_t job_id)
{
    JobState *js = findJob(job_id);
    if (!js || !js->injectedAll || js->awaitingReply > 0)
        return;
    if (js->job->onComplete)
        js->job->onComplete();
    js->job.reset();
    while (!jobs.empty() && !jobs.front().job) {
        jobs.pop_front();
        ++jobBase;
    }
}

void
GpuHub::serveRead(Packet &&pkt)
{
    served.inc(pkt.reqBytes);
    int reply_to = pkt.src;
    Packet resp = newPacket(PacketType::readResp, reply_to);
    resp.addr = pkt.addr;
    resp.payloadBytes = pkt.reqBytes;
    if (pkt.padResponse)
        resp.padBytes = pkt.reqBytes / protocolPadDivisor;
    resp.cookie = pkt.cookie;
    resp.kernel = pkt.kernel;
    resp.issuerGpu = pkt.issuerGpu;

    mem.access(pkt.reqBytes, [this, r = std::move(resp)]() mutable {
        // The HBM read enables the response send.
        CausalProfiler::ScopedCause sc(prof, mem.profNode(),
                                       eq.now());
        wireOrder.push_back(0);
        fabric.sendFromGpu(gpu, std::move(r));
    });
}

void
GpuHub::landWrite(Packet &&pkt)
{
    Addr addr = pkt.addr;
    std::uint32_t bytes = pkt.payloadBytes;
    int contribs = pkt.contribs;
    bool need_ack = pkt.needAck;
    GpuId acker = pkt.issuerGpu;
    std::uint64_t cookie = pkt.cookie;

    mem.access(bytes,
               [this, addr, bytes, contribs, need_ack, acker, cookie] {
        // The HBM write enables tile readiness and the ack.
        CausalProfiler::ScopedCause sc(prof, mem.profNode(),
                                       eq.now());
        if (arrivals)
            arrivals->onDataArrival(gpu, addr, bytes, contribs);
        if (need_ack && acker != invalidId && acker != gpu) {
            Packet ack = newPacket(PacketType::writeAck, acker);
            ack.addr = addr;
            ack.cookie = cookie;
            wireOrder.push_back(0);
            fabric.sendFromGpu(gpu, std::move(ack));
        }
    });
}

void
GpuHub::acceptPacket(Packet &&pkt, CreditLink *from, int vc)
{
    // The GPU sinks at line rate; free the buffer slot immediately.
    from->returnCredit(vc);

    switch (pkt.type) {
      case PacketType::readReq:
        serveRead(std::move(pkt));
        return;

      case PacketType::writeReq:
      case PacketType::caisMergedWrite:
        landWrite(std::move(pkt));
        return;

      case PacketType::readResp:
      case PacketType::caisLoadResp:
      case PacketType::multimemLdReduceResp:
      case PacketType::writeAck: {
        responses.inc();
        if (pkt.type == PacketType::caisLoadResp &&
            caisLoadsOutstanding > 0) {
            --caisLoadsOutstanding;
            // Capped loads may now resume.
            eq.scheduleAfter(0, [this] { pump(); });
        }
        // Cookies below cookieBase wrap to huge offsets and miss.
        std::uint64_t off = pkt.cookie - cookieBase;
        if (off >= cookieToJob.size() || cookieToJob[off] == 0)
            panic("hub %d: response with unknown cookie %llu", gpu,
                  static_cast<unsigned long long>(pkt.cookie));
        std::uint64_t job_id = std::exchange(cookieToJob[off], 0);
        while (!cookieToJob.empty() && cookieToJob.front() == 0) {
            cookieToJob.pop_front();
            ++cookieBase;
        }
        JobState *js = findJob(job_id);
        if (!js)
            panic("hub %d: response for finished job", gpu);
        --js->awaitingReply;
        maybeFinish(job_id);
        return;
      }

      case PacketType::groupSyncRelease:
        if (!synchronizer)
            panic("hub %d: sync release without synchronizer", gpu);
        synchronizer->onRelease(pkt.group,
                                static_cast<SyncPhase>(pkt.cookie));
        return;

      case PacketType::throttleHint:
        pauses.inc();
        pausedGroups[pkt.group] = eq.now() + pkt.cookie;
        return;

      default:
        panic("hub %d: unexpected packet type %s", gpu,
              packetTypeName(pkt.type));
    }
}

bool
GpuHub::idle() const
{
    return jobs.empty() && cookieToJob.empty() && issueQueue.empty() &&
           inflightChunks == 0;
}

} // namespace cais
