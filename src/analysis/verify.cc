#include "analysis/verify.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "analysis/bound_model.hh"
#include "analysis/causal_profile.hh"

#include "common/json.hh"
#include "common/log.hh"
#include "common/nodemask.hh"
#include "noc/network.hh"

namespace cais
{
namespace verify
{

namespace
{

const char *
vcClassName(int v)
{
    switch (v) {
      case 0: return "request";
      case 1: return "response";
      case 2: return "reduction";
      case 3: return "multicast";
      case 4: return "sync";
      case 5: return "control";
      default: return "data";
    }
}

const RuleInfo &
ruleInfo(const char *id)
{
    for (const RuleInfo &r : ruleTable())
        if (std::string(id) == r.id)
            return r;
    static const RuleInfo unknown{"??", "", ""};
    return unknown;
}

struct Ctx
{
    const System &sys;
    const Options &opts;
    std::vector<Diagnostic> &out;

    bool
    enabled(const char *rule) const
    {
        return opts.suppress.count(rule) == 0;
    }

    void
    report(const char *rule, std::string message,
           std::vector<std::string> path = {})
    {
        out.push_back({rule, std::move(message), ruleInfo(rule).hint,
                       std::move(path)});
    }
};

// ------------------------------------------------------------------
// V1: channel-dependency-graph acyclicity (Dally & Seitz)
// ------------------------------------------------------------------

/**
 * One protocol coupling: a node that received a class-`from` packet
 * emits a class-`to` packet on the opposite link direction. Together
 * with the switch forwarding paths these generate every edge of the
 * channel-dependency graph.
 */
struct Coupling
{
    VcClass from;
    VcClass to;
};

/** Switch-turn couplings (uplink arrival -> downlink emission),
 *  mirroring the merge unit, NVLS unit and group sync table. */
const std::vector<Coupling> &
switchCouplings()
{
    static const std::vector<Coupling> c = {
        // Plain forwarding keeps the class (readReq/readResp/
        // writeReq/writeAck unicast between GPUs).
        {VcClass::request, VcClass::request},
        {VcClass::response, VcClass::response},
        {VcClass::reduction, VcClass::reduction},
        {VcClass::control, VcClass::control},
        // Merge unit: caisLoadReq opens a fetch (readReq to home);
        // the returning readResp produces caisLoadResp broadcasts;
        // caisRedReq completion emits the merged write; throttling
        // feedback rides the control class.
        {VcClass::response, VcClass::response},
        {VcClass::reduction, VcClass::control},
        // NVLS unit: multimem.st replicates as multicast writes plus
        // a posted-store ack; multimem.ld_reduce fetches via readReq
        // and responds on the response class.
        {VcClass::multicast, VcClass::multicast},
        {VcClass::multicast, VcClass::control},
        // Group sync table: registration in, release broadcast out.
        {VcClass::sync, VcClass::sync},
    };
    return c;
}

/** GPU-turn couplings (downlink arrival -> uplink emission): the hub
 *  serves reads with data responses and acks landed writes. */
const std::vector<Coupling> &
gpuCouplings()
{
    static const std::vector<Coupling> c = {
        {VcClass::request, VcClass::response},
        {VcClass::reduction, VcClass::control},
        {VcClass::multicast, VcClass::control},
    };
    return c;
}

/** Leaf-to-spine couplings: everything a leaf emits upstream keeps
 *  its class — plain unicast transit, the merge proxy fetch
 *  (caisLoadReq), partial reductions (caisRedReq), the NVLS upstream
 *  legs and sync registrations are all class-identity. */
const std::vector<Coupling> &
leafUpCouplings()
{
    static const std::vector<Coupling> c = {
        {VcClass::request, VcClass::request},
        {VcClass::response, VcClass::response},
        {VcClass::reduction, VcClass::reduction},
        {VcClass::multicast, VcClass::multicast},
        {VcClass::sync, VcClass::sync},
        {VcClass::control, VcClass::control},
    };
    return c;
}

/** Sort/dedupe adjacency, then DFS for the first back edge (in
 *  ascending node order, so reports are deterministic). @p name maps
 *  a channel node id to its diagnostic label. */
void
reportFirstChannelCycle(
    Ctx &cx, std::vector<std::vector<int>> &adj,
    const std::function<std::string(int)> &name)
{
    for (auto &targets : adj) {
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()),
                      targets.end());
    }

    const int count = static_cast<int>(adj.size());
    std::vector<std::uint8_t> color(adj.size(), 0);
    std::vector<int> pathStack;
    for (int root = 0; root < count; ++root) {
        if (color[static_cast<std::size_t>(root)] != 0)
            continue;
        // Frames of (node, next-child index).
        std::vector<std::pair<int, std::size_t>> frames;
        frames.emplace_back(root, 0);
        color[static_cast<std::size_t>(root)] = 1;
        pathStack = {root};
        while (!frames.empty()) {
            auto &[node, next] = frames.back();
            const auto &targets =
                adj[static_cast<std::size_t>(node)];
            if (next < targets.size()) {
                int t = targets[next++];
                if (color[static_cast<std::size_t>(t)] == 1) {
                    // Back edge: pathStack from t's position onward
                    // plus the edge back to t is the cycle.
                    auto it = std::find(pathStack.begin(),
                                        pathStack.end(), t);
                    std::vector<std::string> cyc;
                    for (; it != pathStack.end(); ++it)
                        cyc.push_back(name(*it));
                    cyc.push_back(name(t));
                    cx.report(
                        "V1",
                        strfmt("channel-dependency cycle over %zu "
                               "port/VC channels: a filled buffer on "
                               "each waits on the next, so the fabric "
                               "can deadlock",
                               cyc.size() - 1),
                        std::move(cyc));
                    return;
                }
                if (color[static_cast<std::size_t>(t)] == 0) {
                    color[static_cast<std::size_t>(t)] = 1;
                    frames.emplace_back(t, 0);
                    pathStack.push_back(t);
                }
            } else {
                color[static_cast<std::size_t>(node)] = 2;
                frames.pop_back();
                pathStack.pop_back();
            }
        }
    }
}

/**
 * Channel-dependency graph of the leaf/spine fabric. Four channel
 * families -- GPU->leaf (U1) and leaf->GPU (D1) indexed by (gpu,
 * rail), and leaf->spine (U2) / spine->leaf (D2) indexed by (leaf,
 * spine) -- with turn edges mirroring the tiered protocol: a leaf
 * turns local traffic down with the switch coupling set and
 * forwards/aggregates upstream class-identically; the spine turns
 * every upstream arrival down with the switch coupling set; a leaf
 * fans spine traffic out to its local GPUs; GPUs couple downlink
 * arrivals to uplink emissions. The flat fabric is the one-group,
 * zero-spine case: U2/D2 are empty, and U1/D1 are the (direction,
 * gpu, switch, vc) channels in that order, labelled gpuG->swS and
 * swS->gpuG.
 */
void
checkV1(Ctx &cx)
{
    const FabricParams &p = cx.sys.config().fabric;
    const int G = p.numGpus, V = p.sw.numVcs;
    const int rails = p.uplinksPerGpu(), L = p.numLeaves();
    const int P = p.numSpines, gpp = p.gpusPerGroup();
    const bool unified = p.sw.unifiedDataVc;

    const int d1 = G * rails * V;
    const int u2 = 2 * G * rails * V;
    const int d2 = u2 + L * P * V;
    const int total = d2 + P * L * V;
    auto U1 = [&](GpuId g, int r, int v) {
        return (g * rails + r) * V + v;
    };
    auto D1 = [&](GpuId g, int r, int v) {
        return d1 + (g * rails + r) * V + v;
    };
    auto U2 = [&](int l, int sp, int v) {
        return u2 + (l * P + sp) * V + v;
    };
    auto D2 = [&](int sp, int l, int v) {
        return d2 + (sp * L + l) * V + v;
    };
    auto vcOf = [&](VcClass c) {
        return static_cast<int>(policedVc(c, unified));
    };

    auto name = [=](int node) -> std::string {
        if (node < u2) {
            bool down = node >= d1;
            int idx = down ? node - d1 : node;
            int v = idx % V;
            int gr = idx / V;
            int r = gr % rails;
            GpuId g = gr / rails;
            int grp = g / gpp;
            if (P == 0)
                return down ? strfmt("sw%d->gpu%d vc%d(%s)", r, g, v,
                                     vcClassName(v))
                            : strfmt("gpu%d->sw%d vc%d(%s)", g, r, v,
                                     vcClassName(v));
            if (down)
                return strfmt("leaf%d.sw%d->gpu%d vc%d(%s)", grp, r,
                              g, v, vcClassName(v));
            return strfmt("gpu%d->leaf%d.sw%d vc%d(%s)", g, grp, r, v,
                          vcClassName(v));
        }
        bool down = node >= d2;
        int idx = down ? node - d2 : node - u2;
        int v = idx % V;
        int lp = idx / V;
        int l = down ? lp % L : lp / P;
        int sp = down ? lp / L : lp % P;
        if (down)
            return strfmt("spine.sw%d->leaf%d.sw%d vc%d(%s)", sp,
                          l / rails, l % rails, v, vcClassName(v));
        return strfmt("leaf%d.sw%d->spine.sw%d vc%d(%s)", l / rails,
                      l % rails, sp, v, vcClassName(v));
    };

    std::vector<std::vector<int>> adj(
        static_cast<std::size_t>(total));
    auto addEdge = [&](int a, int b) {
        adj[static_cast<std::size_t>(a)].push_back(b);
    };

    auto leafLocalTurn = [&](VcClass from, VcClass to) {
        int a = vcOf(from), b = vcOf(to);
        for (int grp = 0; grp < p.numGroups; ++grp)
            for (int r = 0; r < rails; ++r)
                for (int gi = 0; gi < gpp; ++gi)
                    for (int di = 0; di < gpp; ++di)
                        addEdge(U1(grp * gpp + gi, r, a),
                                D1(grp * gpp + di, r, b));
    };
    auto leafUpTurn = [&](VcClass from, VcClass to) {
        int a = vcOf(from), b = vcOf(to);
        for (GpuId g = 0; g < G; ++g)
            for (int r = 0; r < rails; ++r)
                for (int sp = 0; sp < P; ++sp)
                    addEdge(U1(g, r, a),
                            U2((g / gpp) * rails + r, sp, b));
    };
    auto spineTurn = [&](VcClass from, VcClass to) {
        int a = vcOf(from), b = vcOf(to);
        for (int sp = 0; sp < P; ++sp)
            for (int l = 0; l < L; ++l)
                for (int l2 = 0; l2 < L; ++l2)
                    addEdge(U2(l, sp, a), D2(sp, l2, b));
    };
    auto leafDownTurn = [&](VcClass from, VcClass to) {
        int a = vcOf(from), b = vcOf(to);
        for (int sp = 0; sp < P; ++sp)
            for (int l = 0; l < L; ++l) {
                int grp = l / rails, r = l % rails;
                for (int di = 0; di < gpp; ++di)
                    addEdge(D2(sp, l, a),
                            D1(grp * gpp + di, r, b));
            }
    };
    auto gpuTurn = [&](VcClass from, VcClass to) {
        int a = vcOf(from), b = vcOf(to);
        for (GpuId g = 0; g < G; ++g)
            for (int r = 0; r < rails; ++r)
                addEdge(D1(g, r, a), U1(g, r, b));
    };

    for (const Coupling &c : switchCouplings()) {
        leafLocalTurn(c.from, c.to);
        spineTurn(c.from, c.to);
        leafDownTurn(c.from, c.to);
    }
    for (const Coupling &c : leafUpCouplings())
        leafUpTurn(c.from, c.to);
    for (const Coupling &c : gpuCouplings())
        gpuTurn(c.from, c.to);
    for (const ExtraCoupling &c : cx.opts.extraCouplings) {
        if (c.atGpu) {
            gpuTurn(c.from, c.to);
        } else {
            leafLocalTurn(c.from, c.to);
            spineTurn(c.from, c.to);
            leafDownTurn(c.from, c.to);
        }
    }

    reportFirstChannelCycle(cx, adj, name);
}

// ------------------------------------------------------------------
// V2: credit conservation per (link, VC)
// ------------------------------------------------------------------

void
checkV2(Ctx &cx)
{
    const FabricParams &p = cx.sys.config().fabric;
    const Fabric &fab = cx.sys.fabric();

    // Uplink credits represent switch input-VC buffer slots; the
    // batched credit-return scheme conserves (credits held + credits
    // in flight + buffer occupancy) == vcDepth only when the initial
    // grant matches the receiver capacity exactly.
    if (p.vcCredits != p.sw.vcDepth) {
        cx.report(
            "V2",
            strfmt("link credits (%d per VC) do not match the "
                   "switch input buffer depth (%d per VC): credits "
                   "and buffer slots cannot balance",
                   p.vcCredits, p.sw.vcDepth),
            {strfmt("vcCredits=%d", p.vcCredits),
             strfmt("sw.vcDepth=%d", p.sw.vcDepth)});
        return; // per-link scan would repeat the same mismatch
    }

    // forEachLink visits GPU-facing links in the historical (gpu,
    // switch, up-then-down) order, then the inter-switch tier links,
    // so flat-fabric diagnostics keep their seed ordering and
    // multi-tier shapes get the same conservation checks on every
    // leaf<->spine link.
    fab.forEachLink([&](const CreditLink &l) {
        if (l.numVcs() != p.sw.numVcs) {
            cx.report("V2",
                      strfmt("link %s has %d VCs but the switch "
                             "arbitrates %d",
                             l.name().c_str(), l.numVcs(),
                             p.sw.numVcs),
                      {l.name()});
            return;
        }
        for (int v = 0; v < l.numVcs(); ++v) {
            if (l.credits(v) != p.vcCredits) {
                cx.report(
                    "V2",
                    strfmt("link %s vc%d holds %d credits before the "
                           "first event (expected the full grant of "
                           "%d)",
                           l.name().c_str(), v, l.credits(v),
                           p.vcCredits),
                    {l.name(), strfmt("vc%d", v)});
                break;
            }
            if (l.queueLen(v) != 0) {
                cx.report(
                    "V2",
                    strfmt("link %s vc%d has %zu packets queued "
                           "before the first event",
                           l.name().c_str(), v, l.queueLen(v)),
                    {l.name(), strfmt("vc%d", v)});
                break;
            }
        }
    });
}

// ------------------------------------------------------------------
// V3: address-hash routing coverage for mergeable sessions
// ------------------------------------------------------------------

bool
isSessionKind(RemoteOpKind k)
{
    return k == RemoteOpKind::caisLoad || k == RemoteOpKind::caisRed ||
           k == RemoteOpKind::nvlsLdReduce ||
           k == RemoteOpKind::nvlsSt;
}

const char *
kindName(RemoteOpKind k)
{
    switch (k) {
      case RemoteOpKind::plainLoad: return "ld.global";
      case RemoteOpKind::plainWrite: return "st.global";
      case RemoteOpKind::nvlsLdReduce: return "multimem.ld_reduce";
      case RemoteOpKind::nvlsSt: return "multimem.st";
      case RemoteOpKind::caisLoad: return "ld.cais";
      case RemoteOpKind::caisRed: return "red.cais";
      default: return "?";
    }
}

void
checkV3(Ctx &cx)
{
    const SystemConfig &sc = cx.sys.config();
    const std::uint64_t interleave = sc.fabric.interleaveBytes;
    const std::uint64_t chunk = sc.gpu.chunkBytes;
    const Fabric &fab = cx.sys.fabric();

    // Per (kernel, kind, base, bytes): contribution count per GPU and
    // the expected participant counts the issuers carry. std::map so
    // diagnostics come out in a deterministic order.
    struct OpGroup
    {
        std::map<GpuId, int> perGpu;
        std::set<int> expected;
    };
    std::map<std::tuple<KernelId, int, Addr, std::uint64_t>, OpGroup>
        groups;

    for (std::size_t ki = 0; ki < cx.sys.numKernels(); ++ki) {
        const KernelDesc &k =
            cx.sys.kernel(static_cast<KernelId>(ki));
        for (GpuId g = 0;
             g < static_cast<GpuId>(k.grids.size()); ++g) {
            for (const TbDesc &tb :
                 k.grids[static_cast<std::size_t>(g)]) {
                auto scanOps = [&](const std::vector<RemoteOp> &ops) {
                    for (const RemoteOp &op : ops) {
                        if (!isSessionKind(op.kind))
                            continue;
                        // A session chunk spanning two interleave
                        // blocks splits one address class across two
                        // switches (routing keys on the chunk base).
                        bool aligned = interleave % chunk == 0 &&
                                       op.base % chunk == 0;
                        if (!aligned) {
                            std::uint64_t off = 0;
                            int scanned = 0;
                            while (off < op.bytes &&
                                   scanned++ < 4096) {
                                std::uint64_t n = std::min<
                                    std::uint64_t>(chunk,
                                                   op.bytes - off);
                                Addr a = op.base + off;
                                if (a / interleave !=
                                    (a + n - 1) / interleave) {
                                    cx.report(
                                        "V3",
                                        strfmt(
                                            "kernel %s: %s chunk at "
                                            "0x%llx (+%llu B) "
                                            "straddles interleave "
                                            "blocks, splitting one "
                                            "address class across "
                                            "switches %d and %d",
                                            k.name.c_str(),
                                            kindName(op.kind),
                                            static_cast<unsigned long
                                                            long>(a),
                                            static_cast<unsigned long
                                                            long>(n),
                                            fab.routeAddr(a),
                                            fab.routeAddr(a + n -
                                                          1)),
                                        {k.name,
                                         strfmt("addr=0x%llx",
                                                static_cast<
                                                    unsigned long
                                                        long>(a)),
                                         strfmt("sw%d",
                                                fab.routeAddr(a)),
                                         strfmt("sw%d",
                                                fab.routeAddr(
                                                    a + n - 1))});
                                    break;
                                }
                                off += n;
                            }
                        }
                        if (op.kind == RemoteOpKind::caisRed ||
                            op.kind == RemoteOpKind::caisLoad) {
                            OpGroup &grp = groups[{
                                k.id, static_cast<int>(op.kind),
                                op.base, op.bytes}];
                            ++grp.perGpu[g];
                            grp.expected.insert(op.expected);
                        }
                    }
                };
                scanOps(tb.pullOps);
                scanOps(tb.pushOps);
            }
        }
    }

    for (const auto &[key, grp] : groups) {
        const auto &[kid, kind, base, bytes] = key;
        const KernelDesc &k = cx.sys.kernel(kid);
        RemoteOpKind rk = static_cast<RemoteOpKind>(kind);
        if (grp.expected.size() > 1) {
            std::vector<std::string> path = {k.name,
                                             kindName(rk)};
            for (int e : grp.expected)
                path.push_back(strfmt("expected=%d", e));
            cx.report(
                "V3",
                strfmt("kernel %s: GPUs disagree on the expected "
                       "participant count of the %s session at "
                       "0x%llx",
                       k.name.c_str(), kindName(rk),
                       static_cast<unsigned long long>(base)),
                std::move(path));
            continue;
        }
        // Hierarchical merging localizes a session's participant
        // count per tier (tier.localExpected), which is well-defined
        // only for the two shapes the protocol produces: all G GPUs,
        // or all but the session's home. Any other count cannot be
        // attributed to leaves without knowing which GPUs abstain.
        if (sc.fabric.multiTier()) {
            int e = *grp.expected.begin();
            int G = cx.sys.numGpus();
            if (e > 0 && e != G && e != G - 1) {
                cx.report(
                    "V3",
                    strfmt("kernel %s: %s session at 0x%llx expects "
                           "%d participants on a multi-tier fabric "
                           "(hierarchical merging supports only all "
                           "%d GPUs or the %d non-home GPUs)",
                           k.name.c_str(), kindName(rk),
                           static_cast<unsigned long long>(base), e,
                           G, G - 1),
                    {k.name,
                     strfmt("addr=0x%llx",
                            static_cast<unsigned long long>(base)),
                     strfmt("expected=%d", e)});
                continue;
            }
        }
        // Reduction sessions complete only when exactly `expected`
        // contributions arrive; a participant-count mismatch stalls
        // the session.
        if (rk == RemoteOpKind::caisRed) {
            int expected = *grp.expected.begin();
            if (expected <= 0)
                expected = cx.sys.numGpus();
            int issuers = static_cast<int>(grp.perGpu.size());
            if (issuers != expected) {
                cx.report(
                    "V3",
                    strfmt("kernel %s: %s session at 0x%llx expects "
                           "%d contributions but %d GPU(s) issue it",
                           k.name.c_str(), kindName(rk),
                           static_cast<unsigned long long>(base),
                           expected, issuers),
                    {k.name, strfmt("addr=0x%llx",
                                    static_cast<unsigned long long>(
                                        base)),
                     strfmt("expected=%d", expected),
                     strfmt("issuers=%d", issuers)});
                continue;
            }
            for (const auto &[g, n] : grp.perGpu) {
                if (n != 1) {
                    cx.report(
                        "V3",
                        strfmt("kernel %s: GPU %d contributes %d "
                               "times to the %s session at 0x%llx "
                               "(exactly one contribution per GPU "
                               "closes the session)",
                               k.name.c_str(), g, n, kindName(rk),
                               static_cast<unsigned long long>(
                                   base)),
                        {k.name, strfmt("gpu%d", g),
                         strfmt("contribs=%d", n)});
                    break;
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// V4: TB-group / Group-Sync-Table consistency
// ------------------------------------------------------------------

void
checkV4(Ctx &cx)
{
    const SystemConfig &sc = cx.sys.config();
    const int G = cx.sys.numGpus();

    // The sync and merge tables track participants in a fixed-width
    // node mask; on multi-tier fabrics leaf-switch node ids register
    // alongside GPU ids, so the whole node-id space must fit.
    const int nodes = G + sc.fabric.numSwitches;
    if (nodes > NodeMask::capacity) {
        cx.report(
            "V4",
            strfmt("%d GPUs plus %d switches exceed the %d-entry "
                   "group-sync participant mask",
                   G, sc.fabric.numSwitches, NodeMask::capacity),
            {strfmt("numGpus=%d", G),
             strfmt("numSwitches=%d", sc.fabric.numSwitches)});
    }

    for (std::size_t ki = 0; ki < cx.sys.numKernels(); ++ki) {
        const KernelDesc &k =
            cx.sys.kernel(static_cast<KernelId>(ki));
        if (!k.preLaunchSync && !k.preAccessSync)
            continue;
        std::map<GroupId, std::map<GpuId, int>> members;
        for (GpuId g = 0;
             g < static_cast<GpuId>(k.grids.size()); ++g)
            for (const TbDesc &tb :
                 k.grids[static_cast<std::size_t>(g)])
                if (tb.group != invalidId)
                    ++members[tb.group][g];

        for (const auto &[group, perGpu] : members) {
            bool oversized = false;
            for (const auto &[g, n] : perGpu) {
                if (n > 1) {
                    cx.report(
                        "V4",
                        strfmt("kernel %s: TB group %lld has %d TBs "
                               "on GPU %d (the sync table counts "
                               "each GPU once, so extra TBs never "
                               "release)",
                               k.name.c_str(),
                               static_cast<long long>(group), n, g),
                        {k.name,
                         strfmt("group=%lld",
                                static_cast<long long>(group)),
                         strfmt("gpu%d", g), strfmt("tbs=%d", n)});
                    oversized = true;
                    break;
                }
            }
            if (oversized)
                continue;
            if (static_cast<int>(perGpu.size()) != G) {
                std::vector<std::string> path = {
                    k.name,
                    strfmt("group=%lld",
                           static_cast<long long>(group))};
                for (GpuId g = 0; g < G; ++g)
                    if (!perGpu.count(g))
                        path.push_back(strfmt("missing gpu%d", g));
                cx.report(
                    "V4",
                    strfmt("kernel %s: TB group %lld spans %zu "
                           "GPU(s) but the release broadcast waits "
                           "for all %d",
                           k.name.c_str(),
                           static_cast<long long>(group),
                           perGpu.size(), G),
                    std::move(path));
            }
        }
    }

    // Throttle-threshold reachability: the merge unit counts open
    // sessions per group, which is bounded by the merging-table entry
    // capacity and by the fleet-wide outstanding-load cap.
    const MergeParams &mp = sc.inswitch.merge;
    if (mp.throttleEnabled && mp.throttleThreshold > 0) {
        if (mp.tableBytesPerPort > 0 && mp.chunkBytes > 0) {
            std::uint64_t entries =
                mp.tableBytesPerPort / mp.chunkBytes;
            if (static_cast<std::uint64_t>(mp.throttleThreshold) >
                entries) {
                cx.report(
                    "V4",
                    strfmt("throttle threshold %d exceeds the %llu "
                           "merging-table entries per port, so the "
                           "hint level is unreachable",
                           mp.throttleThreshold,
                           static_cast<unsigned long long>(entries)),
                    {strfmt("throttleThreshold=%d",
                            mp.throttleThreshold),
                     strfmt("tableEntriesPerPort=%llu",
                            static_cast<unsigned long long>(
                                entries))});
            }
        }
        std::uint64_t fleetCap =
            static_cast<std::uint64_t>(G) *
            static_cast<std::uint64_t>(
                sc.gpu.maxCaisLoadOutstanding);
        if (static_cast<std::uint64_t>(mp.throttleThreshold) >
            fleetCap) {
            cx.report(
                "V4",
                strfmt("throttle threshold %d exceeds the fleet-wide "
                       "outstanding-request cap %llu (%d GPUs x %d), "
                       "so the hint level is unreachable",
                       mp.throttleThreshold,
                       static_cast<unsigned long long>(fleetCap), G,
                       sc.gpu.maxCaisLoadOutstanding),
                {strfmt("throttleThreshold=%d", mp.throttleThreshold),
                 strfmt("fleetCap=%llu",
                        static_cast<unsigned long long>(fleetCap))});
        }
    }
}

// ------------------------------------------------------------------
// V5: kernel-graph sanity
// ------------------------------------------------------------------

void
checkV5(Ctx &cx)
{
    const std::size_t N = cx.sys.numKernels();

    // Tracker -> producing kernels.
    std::map<int, std::vector<std::size_t>> producers;
    for (std::size_t ki = 0; ki < N; ++ki) {
        const KernelDesc &k =
            cx.sys.kernel(static_cast<KernelId>(ki));
        if (k.producesTracker != invalidId)
            producers[k.producesTracker].push_back(ki);
    }

    // Dependency edges: explicit kernelDeps plus tile-level
    // producer/consumer edges through the trackers.
    std::vector<std::vector<std::size_t>> adj(N);
    for (std::size_t ki = 0; ki < N; ++ki) {
        const KernelDesc &k =
            cx.sys.kernel(static_cast<KernelId>(ki));
        for (KernelId d : k.kernelDeps) {
            if (d < 0 || static_cast<std::size_t>(d) >= N) {
                cx.report("V5",
                          strfmt("kernel %s depends on unknown "
                                 "kernel id %d",
                                 k.name.c_str(), d),
                          {k.name, strfmt("dep=%d", d)});
                continue;
            }
            adj[static_cast<std::size_t>(d)].push_back(ki);
        }
        std::set<int> depTrackers;
        for (const auto &grid : k.grids)
            for (const TbDesc &tb : grid)
                for (const TileRef &ref : tb.deps)
                    if (ref.tracker != invalidId)
                        depTrackers.insert(ref.tracker);
        for (int t : depTrackers) {
            auto it = producers.find(t);
            if (it == producers.end())
                continue;
            for (std::size_t p : it->second)
                if (p != ki)
                    adj[p].push_back(ki);
        }
    }
    for (auto &targets : adj) {
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()),
                      targets.end());
    }

    auto kernelName = [&](std::size_t ki) {
        return cx.sys.kernel(static_cast<KernelId>(ki)).name;
    };

    // Cycle detection (DFS, deterministic order).
    std::vector<std::uint8_t> color(N, 0);
    std::vector<std::size_t> pathStack;
    bool cycleFound = false;
    for (std::size_t root = 0; root < N && !cycleFound; ++root) {
        if (color[root] != 0)
            continue;
        std::vector<std::pair<std::size_t, std::size_t>> frames;
        frames.emplace_back(root, 0);
        color[root] = 1;
        pathStack = {root};
        while (!frames.empty() && !cycleFound) {
            auto &[node, next] = frames.back();
            if (next < adj[node].size()) {
                std::size_t t = adj[node][next++];
                if (color[t] == 1) {
                    auto it = std::find(pathStack.begin(),
                                        pathStack.end(), t);
                    std::vector<std::string> cyc;
                    for (; it != pathStack.end(); ++it)
                        cyc.push_back(kernelName(*it));
                    cyc.push_back(kernelName(t));
                    cx.report(
                        "V5",
                        strfmt("kernel dependency cycle over %zu "
                               "kernel(s): none of them can ever "
                               "launch",
                               cyc.size() - 1),
                        std::move(cyc));
                    cycleFound = true;
                    break;
                }
                if (color[t] == 0) {
                    color[t] = 1;
                    frames.emplace_back(t, 0);
                    pathStack.push_back(t);
                }
            } else {
                color[node] = 2;
                frames.pop_back();
                pathStack.pop_back();
            }
        }
    }
    if (cycleFound)
        return; // reachability below assumes a DAG

    // Reachability closure for the overlap analysis.
    std::vector<std::vector<bool>> reach(N,
                                         std::vector<bool>(N, false));
    for (std::size_t ki = N; ki-- > 0;) {
        // adj targets always have larger topological depth; a reverse
        // index sweep is not a topological order, so iterate to a
        // fixed point instead (N is small: one kernel per op stage).
        for (std::size_t t : adj[ki])
            reach[ki][t] = true;
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t ki = 0; ki < N; ++ki)
            for (std::size_t t : adj[ki])
                for (std::size_t x = 0; x < N; ++x)
                    if (reach[t][x] && !reach[ki][x]) {
                        reach[ki][x] = true;
                        changed = true;
                    }
    }

    // Traffic direction of each kernel: +1 pure pull (stresses the
    // switch-to-GPU direction), -1 pure push (GPU-to-switch), 0 mixed
    // or local-only.
    std::vector<int> dir(N, 0);
    std::vector<bool> partial(N, false);
    for (std::size_t ki = 0; ki < N; ++ki) {
        const KernelDesc &k =
            cx.sys.kernel(static_cast<KernelId>(ki));
        std::uint64_t pull = 0, push = 0;
        for (const auto &grid : k.grids)
            for (const TbDesc &tb : grid) {
                for (const RemoteOp &op : tb.pullOps)
                    pull += op.bytes;
                for (const RemoteOp &op : tb.pushOps)
                    push += op.bytes;
            }
        if (pull > 0 && push == 0)
            dir[ki] = 1;
        else if (push > 0 && pull == 0)
            dir[ki] = -1;
        partial[ki] = k.smFrom > 0.0 || k.smTo < 1.0;
    }

    // Asymmetric-overlap pairs: SM-disjoint, unordered kernels that
    // both press the same link direction saturate it instead of
    // overlapping complementary traffic (Sec. III-C.2).
    for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = i + 1; j < N; ++j) {
            if (!partial[i] || !partial[j])
                continue;
            if (dir[i] == 0 || dir[i] != dir[j])
                continue;
            if (reach[i][j] || reach[j][i])
                continue;
            const KernelDesc &a =
                cx.sys.kernel(static_cast<KernelId>(i));
            const KernelDesc &b =
                cx.sys.kernel(static_cast<KernelId>(j));
            bool disjoint = a.smTo <= b.smFrom || b.smTo <= a.smFrom;
            if (!disjoint)
                continue;
            cx.report(
                "V5",
                strfmt("asymmetric-overlap pair %s / %s runs on "
                       "disjoint SM partitions with no ordering but "
                       "both %s: the shared link direction "
                       "saturates instead of overlapping",
                       a.name.c_str(), b.name.c_str(),
                       dir[i] > 0 ? "pull" : "push"),
                {a.name, b.name, dir[i] > 0 ? "pull" : "push"});
        }
    }
}

} // namespace

// ------------------------------------------------------------------
// Public API
// ------------------------------------------------------------------

const std::vector<RuleInfo> &
ruleTable()
{
    static const std::vector<RuleInfo> table = {
        {"V1",
         "virtual-channel channel-dependency graph must be acyclic "
         "across switch chips and credit links, including the "
         "leaf/spine tier hops of multi-tier fabrics",
         "break the coupling cycle: give the generated traffic class "
         "its own VC or decouple buffer hold from emission"},
        {"V2",
         "link credits, receiver buffer capacities and batched credit "
         "returns must balance per (link, VC)",
         "grant exactly the receiver buffer depth in credits "
         "(FabricParams::vcCredits == SwitchParams::vcDepth)"},
        {"V3",
         "every mergeable address class maps to exactly one switch "
         "(one rail per tier on multi-tier fabrics) and all GPUs "
         "agree on session membership",
         "align session bases to the chunk size, keep the interleave "
         "a multiple of it, and issue one contribution per "
         "participating GPU"},
        {"V4",
         "TB groups match the Group Sync Table: one TB per "
         "participating GPU on every GPU, masks and throttle "
         "thresholds within capacity",
         "emit one TB per (group, GPU) across all GPUs and keep the "
         "throttle threshold within table and outstanding-request "
         "capacity"},
        {"V5",
         "kernel and tile-level producer/consumer dependencies are "
         "acyclic; asymmetric-overlap pairs have complementary "
         "traffic directions",
         "remove the dependency back edge, or pair a pull-direction "
         "kernel with a push-direction one on the disjoint SM "
         "partition"},
        {"V8",
         "the simulated makespan must be at least the static "
         "analytical bound of every resource class (SM compute, HBM, "
         "link serialization, merge service, kernel critical path)",
         "a makespan below the bound is a simulator bug: audit the "
         "resource model the diagnostic names, or the bound term if "
         "the model intentionally overlaps that cost"},
        {"V9",
         "when sim/bound exceeds the configured slack ratio, the "
         "causal profiler must attribute the slack (coverage >= 95%)",
         "profile the run (RunConfig::profile) and inspect the "
         "dominant wait class, or raise the slack ratio if the "
         "workload is legitimately far from its bound"},
    };
    return table;
}

std::string
VerifyResult::text() const
{
    if (diagnostics.empty())
        return "cais-verify: clean (0 diagnostics)\n";
    std::string out =
        strfmt("cais-verify: %zu diagnostic(s)\n", diagnostics.size());
    for (const Diagnostic &d : diagnostics) {
        out += "[" + d.id + "] " + d.message + "\n";
        if (!d.hint.empty())
            out += "  fix: " + d.hint + "\n";
        if (!d.path.empty()) {
            out += "  path: ";
            for (std::size_t i = 0; i < d.path.size(); ++i) {
                if (i)
                    out += " -> ";
                out += d.path[i];
            }
            out += "\n";
        }
    }
    return out;
}

std::string
VerifyResult::json() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

void
VerifyResult::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("schema", verifySchemaVersion);
    if (!strategy.empty())
        w.field("strategy", strategy);
    if (!workload.empty())
        w.field("workload", workload);
    w.key("counts").beginObject();
    for (const RuleInfo &r : ruleTable()) {
        std::uint64_t n = 0;
        for (const Diagnostic &d : diagnostics)
            if (d.id == r.id)
                ++n;
        w.field(r.id, n);
    }
    w.endObject();
    w.key("diagnostics").beginArray();
    for (const Diagnostic &d : diagnostics) {
        w.beginObject();
        w.field("id", d.id);
        w.field("message", d.message);
        w.field("hint", d.hint);
        w.key("path").beginArray();
        for (const std::string &p : d.path)
            w.value(p);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

VerifyResult
verifySystem(const System &sys, const Options &opts)
{
    VerifyResult r;
    r.strategy = opts.strategy;
    r.workload = opts.workload;
    Ctx cx{sys, opts, r.diagnostics};
    if (cx.enabled("V1"))
        checkV1(cx);
    if (cx.enabled("V2"))
        checkV2(cx);
    if (cx.enabled("V3"))
        checkV3(cx);
    if (cx.enabled("V4"))
        checkV4(cx);
    if (cx.enabled("V5"))
        checkV5(cx);
    return r;
}

VerifyResult
verifyRun(const StrategySpec &spec, const OpGraph &graph,
          const RunConfig &cfg, const Options &opts)
{
    cfg.validate();
    System sys(cfg.toSystemConfig(spec));
    GraphLowering lowering(sys, graph, spec.opts);
    lowering.lower();
    Options o = opts;
    if (o.strategy.empty())
        o.strategy = spec.name;
    return verifySystem(sys, o);
}

VerifyResult
verifyPostRun(const System &sys, const BoundResult &bound,
              Cycle makespan, const Attribution *attr,
              const Options &opts)
{
    (void)sys; // context only; the rules act on the finished numbers
    VerifyResult r;
    r.strategy = opts.strategy;
    r.workload = opts.workload;

    const std::pair<const char *, Cycle> classes[] = {
        {"smCompute", bound.smCompute},
        {"hbm", bound.hbm},
        {"linkSerialization", bound.linkSerialization},
        {"mergeService", bound.mergeService},
        {"criticalPath", bound.criticalPath},
    };

    if (!opts.suppress.count("V8")) {
        for (const auto &[name, cyc] : classes) {
            if (makespan >= cyc)
                continue;
            Diagnostic d;
            d.id = "V8";
            d.message = strfmt(
                "simulated makespan %llu cycles is below the static "
                "%s bound of %llu cycles (composite bound %llu, "
                "binding resource %s)",
                static_cast<unsigned long long>(makespan), name,
                static_cast<unsigned long long>(cyc),
                static_cast<unsigned long long>(bound.composite),
                bound.binding.c_str());
            d.hint =
                "a run faster than its resource floor is a simulator "
                "bug: audit the model behind the named resource, or "
                "the bound term if the cost is intentionally "
                "overlapped";
            d.path = {std::string("resource:") + name};
            r.diagnostics.push_back(std::move(d));
        }
    }

    if (opts.v9SlackRatio > 0.0 && !opts.suppress.count("V9") &&
        bound.composite > 0 &&
        static_cast<double>(makespan) >
            opts.v9SlackRatio * static_cast<double>(bound.composite)) {
        const bool explained = attr != nullptr &&
                               attr->coverage() >= 0.95;
        if (!explained) {
            std::size_t dom = 1; // dominant attributed class (skip
                                 // index 0 = unattributed)
            if (attr != nullptr) {
                for (std::size_t i = 2; i < attr->byClass.size(); ++i)
                    if (attr->byClass[i] > attr->byClass[dom])
                        dom = i;
            }
            Diagnostic d;
            d.id = "V9";
            const double ratio =
                static_cast<double>(makespan) /
                static_cast<double>(bound.composite);
            if (attr == nullptr) {
                d.message = strfmt(
                    "sim/bound ratio %.2f exceeds the slack threshold "
                    "%.2f (makespan %llu vs composite bound %llu, "
                    "binding %s) and no profiler attribution is "
                    "available to explain the slack",
                    ratio, opts.v9SlackRatio,
                    static_cast<unsigned long long>(makespan),
                    static_cast<unsigned long long>(bound.composite),
                    bound.binding.c_str());
            } else {
                d.message = strfmt(
                    "sim/bound ratio %.2f exceeds the slack threshold "
                    "%.2f (makespan %llu vs composite bound %llu, "
                    "binding %s) and the profiler explains only "
                    "%.1f%% of the makespan (dominant wait class %s)",
                    ratio, opts.v9SlackRatio,
                    static_cast<unsigned long long>(makespan),
                    static_cast<unsigned long long>(bound.composite),
                    bound.binding.c_str(), attr->coverage() * 100.0,
                    waitClassName(static_cast<WaitClass>(dom)));
            }
            d.hint =
                "profile the run (RunConfig::profile) and chase the "
                "dominant wait class, or raise boundSlackRatio if the "
                "workload legitimately runs this far from its bound";
            d.path = {std::string("binding:") + bound.binding};
            r.diagnostics.push_back(std::move(d));
        }
    }
    return r;
}

} // namespace verify
} // namespace cais
