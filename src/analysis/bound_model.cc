#include "analysis/bound_model.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/json.hh"
#include "noc/packet.hh"
#include "runtime/system.hh"

namespace cais
{

namespace
{

/**
 * Guaranteed floor of one TB's execution time: the jitter multiplier
 * is clamped at 0.5 (gpu/thread_block.cc) and the duration at one
 * cycle, so half the nominal work survives any jitter draw.
 */
std::uint64_t
tbFloorCycles(Cycle compute, bool jittered)
{
    if (compute == 0)
        return 0;
    if (!jittered)
        return compute;
    return std::max<std::uint64_t>(1, compute / 2);
}

/** Bytes covered by the union of half-open [first, second) ranges. */
std::uint64_t
unionBytes(std::vector<std::pair<Addr, Addr>> &iv)
{
    if (iv.empty())
        return 0;
    std::sort(iv.begin(), iv.end());
    std::uint64_t total = 0;
    Addr lo = iv[0].first;
    Addr hi = iv[0].second;
    for (const auto &[b, e] : iv) {
        if (b > hi) {
            total += hi - lo;
            lo = b;
            hi = e;
        } else {
            hi = std::max(hi, e);
        }
    }
    total += hi - lo;
    return total;
}

/** Per-GPU traffic the analyzer accumulates while walking TBs. */
struct Traffic
{
    std::uint64_t up = 0;       ///< wire bytes injected by this GPU
    std::uint64_t dn = 0;       ///< wire bytes absorbed by this GPU
    std::uint64_t hbmBytes = 0; ///< fabric-facing HBM bytes
    std::uint64_t work = 0;     ///< jitter-floored compute cycles

    /** Mergeable ranges homed here (deduplicated once per run). */
    std::vector<std::pair<Addr, Addr>> loadRanges;
    std::vector<std::pair<Addr, Addr>> redRanges;
};

/**
 * Account one remote op's guaranteed traffic. Only structurally
 * certain bytes are charged (see the file comment in the header):
 * protocol pads, NVLS fan-out and gather fetches are dropped because
 * their exact delivery set is not derivable from the descriptor.
 */
void
accountOp(const RemoteOp &op, std::size_t g, std::uint64_t chunk,
          std::vector<Traffic> &t)
{
    if (op.bytes == 0)
        return;
    const std::uint64_t hdrs =
        ceilDiv(op.bytes, chunk) * packetHeaderBytes;
    const auto home = static_cast<std::size_t>(addrHomeGpu(op.base));
    const bool home_ok = home < t.size();

    switch (op.kind) {
      case RemoteOpKind::plainLoad:
        // Request headers up, full response down; the home GPU reads
        // the bytes from HBM and serializes the response on its own
        // uplinks (gpu/hub.cc serveRead).
        t[g].up += hdrs;
        t[g].dn += op.bytes + hdrs;
        if (home_ok) {
            t[home].up += op.bytes + hdrs;
            t[home].hbmBytes += op.bytes;
        }
        break;
      case RemoteOpKind::caisLoad:
        // Every requester is answered in full (merge_unit.cc
        // respondLoad); the home-side fetch happens at least once per
        // unique chunk over the whole run, so it is charged from the
        // deduplicated range union below.
        t[g].up += hdrs;
        t[g].dn += op.bytes + hdrs;
        if (home_ok)
            t[home].loadRanges.emplace_back(op.base,
                                            op.base + op.bytes);
        break;
      case RemoteOpKind::nvlsLdReduce:
        // Each request gets its own gather session and a full-size
        // response (nvls_unit.cc completeGather); the replica fetch
        // set depends on tier placement, so only the certain legs
        // are charged.
        t[g].up += hdrs;
        t[g].dn += op.bytes + hdrs;
        break;
      case RemoteOpKind::plainWrite:
        t[g].up += op.bytes + hdrs;
        if (home_ok) {
            t[home].dn += op.bytes + hdrs;
            t[home].hbmBytes += op.bytes;
        }
        break;
      case RemoteOpKind::caisRed:
        // The contribution always crosses the sender's uplinks; the
        // merged write lands at least once per unique chunk (charged
        // from the range union below).
        t[g].up += op.bytes + hdrs;
        if (home_ok)
            t[home].redRanges.emplace_back(op.base,
                                           op.base + op.bytes);
        break;
      case RemoteOpKind::nvlsSt:
        // Injection is certain; the multicast fan-out set is not
        // derivable here, so it is dropped.
        t[g].up += op.bytes + hdrs;
        break;
    }
}

} // namespace

Cycle
BoundResult::byName(const std::string &resource) const
{
    if (resource == "smCompute")
        return smCompute;
    if (resource == "hbm")
        return hbm;
    if (resource == "linkSerialization")
        return linkSerialization;
    if (resource == "mergeService")
        return mergeService;
    if (resource == "criticalPath")
        return criticalPath;
    return 0;
}

std::string
BoundResult::json() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

void
BoundResult::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("schema", boundSchemaVersion);
    w.key("resources").beginObject();
    w.field("smCompute", smCompute);
    w.field("hbm", hbm);
    w.field("linkSerialization", linkSerialization);
    w.field("mergeService", mergeService);
    w.field("criticalPath", criticalPath);
    w.endObject();
    w.field("composite", composite);
    w.field("binding", binding);
    w.endObject();
}

BoundResult
computeBound(const System &sys, const BoundOptions &opts)
{
    const SystemConfig &sc = sys.config();
    const GpuParams &gp = sc.gpu;
    const FabricParams &fp = sc.fabric;
    const auto gpus = static_cast<std::size_t>(fp.numGpus);
    const bool jittered = gp.jitterSigma > 0.0;
    const std::uint64_t chunk = std::max<std::uint64_t>(1, gp.chunkBytes);

    std::uint64_t slots = static_cast<std::uint64_t>(gp.numSms) *
                          static_cast<std::uint64_t>(gp.ctasPerSm);
    if (opts.smThroughputScale != 1.0)
        slots = static_cast<std::uint64_t>(
            static_cast<double>(slots) * opts.smThroughputScale);
    slots = std::max<std::uint64_t>(1, slots);

    const SerDivider linkBw(fp.perGpuBytesPerCycle *
                            opts.linkBandwidthScale);
    const SerDivider hbmBw(gp.hbmBytesPerCycle);

    std::vector<Traffic> traffic(gpus);
    std::vector<std::uint64_t> kernelWeight(sys.numKernels(), 0);

    for (std::size_t ki = 0; ki < sys.numKernels(); ++ki) {
        const KernelDesc &k = sys.kernel(static_cast<KernelId>(ki));
        if (k.totalTbs() == 0)
            continue; // zero-TB kernels finish without launching

        std::uint64_t exec_floor = 0;
        bool has_pull = false;
        for (std::size_t g = 0; g < k.grids.size() && g < gpus; ++g) {
            std::uint64_t grid_work = 0;
            std::uint64_t max_tb = 0;
            for (const TbDesc &tb : k.grids[g]) {
                std::uint64_t d =
                    tbFloorCycles(tb.computeCycles, jittered);
                grid_work += d;
                max_tb = std::max(max_tb, d);
                if (!tb.pullOps.empty())
                    has_pull = true;
                for (const RemoteOp &op : tb.pullOps)
                    accountOp(op, g, chunk, traffic);
                for (const RemoteOp &op : tb.pushOps)
                    accountOp(op, g, chunk, traffic);
            }
            traffic[g].work += grid_work;
            exec_floor = std::max(
                exec_floor,
                std::max(ceilDiv(grid_work, slots), max_tb));
        }
        // A TB with pull ops cannot retire before its responses
        // return: one uplink and one downlink propagation at minimum.
        const std::uint64_t pull_floor =
            has_pull ? 2 * static_cast<std::uint64_t>(fp.linkLatency)
                     : 0;
        kernelWeight[ki] = static_cast<std::uint64_t>(k.launchOverhead) +
                           std::max(exec_floor, pull_floor);
    }

    BoundResult r;
    for (std::size_t g = 0; g < gpus; ++g) {
        Traffic &t = traffic[g];
        const std::uint64_t load_union = unionBytes(t.loadRanges);
        const std::uint64_t red_union = unionBytes(t.redRanges);
        // Deduplicated merge traffic at the home port: fetch reads +
        // responses up, merged writes landing down and into HBM.
        t.hbmBytes += load_union + red_union;
        t.up += load_union;
        t.dn += red_union;

        r.smCompute =
            std::max(r.smCompute, ceilDiv(t.work, slots));
        r.hbm = std::max(r.hbm, t.hbmBytes > 0
                                    ? hbmBw.cycles(t.hbmBytes)
                                    : 0);
        const Cycle up_cyc = t.up > 0 ? linkBw.cycles(t.up) : 0;
        const Cycle dn_cyc = t.dn > 0 ? linkBw.cycles(t.dn) : 0;
        r.linkSerialization = std::max(
            r.linkSerialization, std::max(up_cyc, dn_cyc));
        const Cycle merge_up =
            load_union > 0 ? linkBw.cycles(load_union) : 0;
        const Cycle merge_dn =
            red_union > 0 ? linkBw.cycles(red_union) : 0;
        r.mergeService = std::max(r.mergeService,
                                  std::max(merge_up, merge_dn));
    }

    // Longest path through the kernel dependency graph (V5 proves it
    // acyclic); memoized depth-first walk over the descriptor ids. A
    // back edge (possible only with verification suppressed) is
    // treated as distance 0 rather than recursed into.
    enum : std::uint8_t { unvisited = 0, visiting = 1, finished = 2 };
    std::vector<std::uint64_t> dist(sys.numKernels(), 0);
    std::vector<std::uint8_t> state(sys.numKernels(), unvisited);
    for (std::size_t root = 0; root < sys.numKernels(); ++root) {
        if (state[root] == finished)
            continue;
        std::vector<std::size_t> stack{root};
        while (!stack.empty()) {
            std::size_t ki = stack.back();
            if (state[ki] == finished) {
                stack.pop_back();
                continue;
            }
            state[ki] = visiting;
            const KernelDesc &k = sys.kernel(static_cast<KernelId>(ki));
            bool ready = true;
            std::uint64_t best_dep = 0;
            for (KernelId dep : k.kernelDeps) {
                if (dep < 0 ||
                    static_cast<std::size_t>(dep) >= sys.numKernels())
                    continue;
                const auto di = static_cast<std::size_t>(dep);
                if (state[di] == unvisited) {
                    stack.push_back(di);
                    ready = false;
                } else if (state[di] == finished) {
                    best_dep = std::max(best_dep, dist[di]);
                }
            }
            if (!ready)
                continue;
            dist[ki] = kernelWeight[ki] + best_dep;
            state[ki] = finished;
            stack.pop_back();
        }
    }
    for (std::size_t ki = 0; ki < sys.numKernels(); ++ki)
        r.criticalPath = std::max(r.criticalPath, dist[ki]);

    const std::pair<const char *, Cycle> classes[] = {
        {"smCompute", r.smCompute},
        {"hbm", r.hbm},
        {"linkSerialization", r.linkSerialization},
        {"mergeService", r.mergeService},
        {"criticalPath", r.criticalPath},
    };
    r.binding = classes[0].first;
    for (const auto &[name, cyc] : classes) {
        if (cyc > r.composite) {
            r.composite = cyc;
            r.binding = name;
        }
    }
    return r;
}

} // namespace cais
