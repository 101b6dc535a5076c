#include "runtime/execution_strategy.hh"

#include <algorithm>

#include "common/log.hh"
#include "compiler/cais_lowering.hh"

namespace cais
{

GraphLowering::GraphLowering(System &sys_, const OpGraph &graph_,
                             const LoweringOptions &opts_)
    : sys(sys_), graph(graph_), opts(opts_), G(sys_.numGpus()),
      tileRows(tiling.tileM)
{
    FusionOptions fo;
    fo.enableTileDeps = opts.graphOptimizer;
    fo.enableAsymmetricOverlap =
        opts.graphOptimizer && opts.asymmetricOverlap;
    fusion = FusionPlanner().plan(graph, fo);

    outT.assign(graph.size(), nullptr);
    lastKernel.assign(graph.size(), invalidId);
}

void
GraphLowering::lower()
{
    for (OpId id : graph.topoOrder()) {
        switch (node(id).kind) {
          case OpKind::layerNorm:
          case OpKind::elementwise:
            lowerElementwise(id);
            break;
          case OpKind::attentionCore:
            lowerAttention(id);
            break;
          case OpKind::gemmColParallel:
            lowerGemmCol(id);
            break;
          case OpKind::gemmRowParallel:
            lowerGemmRow(id);
            break;
          case OpKind::reduceScatter:
            lowerReduceScatter(id);
            break;
          case OpKind::allGather:
            lowerAllGather(id);
            break;
          default:
            panic("cannot lower op kind %d",
                  static_cast<int>(node(id).kind));
        }
    }
}

// --------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------

OpId
GraphLowering::realInput(OpId id, int idx) const
{
    const auto &ins = node(id).inputs;
    if (idx >= static_cast<int>(ins.size()))
        return invalidId;
    return ins[static_cast<std::size_t>(idx)];
}

std::vector<KernelId>
GraphLowering::barrierDeps(OpId id) const
{
    std::vector<KernelId> deps;
    for (OpId in : node(id).inputs) {
        KernelId k = lastKernel[static_cast<std::size_t>(in)];
        if (k != invalidId &&
            std::find(deps.begin(), deps.end(), k) == deps.end())
            deps.push_back(k);
    }
    return deps;
}

TensorInfo &
GraphLowering::defineOutput(OpId id, TensorLayout layout,
                            std::int64_t cols, int need_factor)
{
    TensorInfo &t = sys.defineTensor(node(id).name, layout,
                                     node(id).rows, cols,
                                     node(id).elemBytes, tileRows,
                                     need_factor);
    outT[static_cast<std::size_t>(id)] = &t;
    return t;
}

KernelDesc
GraphLowering::newKernel(const std::string &name)
{
    KernelDesc k;
    k.name = name;
    k.grids.resize(static_cast<std::size_t>(G));
    k.launchOverhead = sys.config().gpu.kernelLaunchOverhead;
    return k;
}

void
GraphLowering::finishKernel(OpId id, KernelDesc &&k)
{
    lastKernel[static_cast<std::size_t>(id)] = sys.addKernel(
        std::move(k));
}

bool
GraphLowering::consumerIsReduction(OpId id) const
{
    for (OpId c : graph.consumers(id)) {
        OpKind k = node(c).kind;
        if (k == OpKind::reduceScatter || k == OpKind::allReduce)
            return true;
    }
    return false;
}

void
GraphLowering::smRange(OpId id, double &from, double &to) const
{
    from = fusion.of(id).smFrom;
    to = fusion.of(id).smTo;
}

bool
GraphLowering::tileDeps(OpId id) const
{
    (void)id;
    return opts.collectives == CollectiveImpl::cais &&
           opts.graphOptimizer;
}

namespace
{

/**
 * Home-interleaved tile order: consecutive thread blocks target
 * different home GPUs (CTA swizzling), spreading merge-table and
 * link load across switch ports instead of sweeping one shard at a
 * time.
 */
std::vector<int>
interleavedTiles(const TensorInfo &t, int num_gpus)
{
    (void)num_gpus;
    // Plain ascending order: with balanced shards the home GPU
    // rotates every few tiles, and the hub's windowed round-robin
    // interleaves chunks across the in-flight tiles, so ports are
    // spread while tiles still complete progressively.
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(t.numTiles));
    for (int i = 0; i < t.numTiles; ++i)
        order.push_back(i);
    return order;
}

/** Tile dep at the GPU where the producer instance lives. */
TileRef
depAt(const TensorInfo &src, int tile, GpuId consumer_gpu)
{
    TileRef r;
    r.tracker = src.tracker;
    r.tile = tile;
    r.atGpu = src.layout == TensorLayout::rowShardedHome
                  ? src.tileOwner(tile)
                  : consumer_gpu;
    return r;
}

} // namespace

// --------------------------------------------------------------------
// Compute operators
// --------------------------------------------------------------------

void
GraphLowering::lowerElementwise(OpId id)
{
    const OpNode &n = node(id);
    const GpuParams &gp = sys.config().gpu;

    bool replicated_mode =
        n.rowSharded && opts.reassociateToAllReduce;
    bool row_sharded = n.rowSharded && !replicated_mode;
    std::int64_t cols_local = n.colSharded ? n.cols / G : n.cols;

    TensorInfo &out = defineOutput(
        id, row_sharded ? TensorLayout::rowShardedHome
                        : TensorLayout::perGpuPrivate,
        cols_local, 1);

    OpId in = realInput(id);
    const TensorInfo *inT =
        in != invalidId ? outT[static_cast<std::size_t>(in)] : nullptr;

    KernelDesc k = newKernel(n.name);
    if (!tileDeps(id) && in != invalidId)
        k.kernelDeps = barrierDeps(id);
    k.producesTracker = out.tracker;

    Cycle cost = memBoundTbCycles(
        gp, out.bytesPerTile, n.kind == OpKind::layerNorm ? 3.0 : 2.0);

    for (GpuId g = 0; g < G; ++g) {
        for (int t = 0; t < out.numTiles; ++t) {
            if (row_sharded && out.tileOwner(t) != g)
                continue;
            TbDesc tb;
            tb.computeCycles = cost;
            tb.producesTile = t;
            tb.produceBytes = out.bytesPerTile;
            if (inT)
                tb.deps.push_back(depAt(*inT, t, g));
            k.grids[static_cast<std::size_t>(g)].push_back(
                std::move(tb));
        }
    }
    finishKernel(id, std::move(k));
}

void
GraphLowering::lowerAttention(OpId id)
{
    const OpNode &n = node(id);
    const GpuParams &gp = sys.config().gpu;
    std::int64_t cols_local = n.cols / G;

    TensorInfo &out =
        defineOutput(id, TensorLayout::perGpuPrivate, cols_local, 1);

    OpId in = realInput(id);
    const TensorInfo *inT =
        in != invalidId ? outT[static_cast<std::size_t>(in)] : nullptr;

    KernelDesc k = newKernel(n.name);
    if (!tileDeps(id))
        k.kernelDeps = barrierDeps(id);
    k.producesTracker = out.tracker;

    Cycle cost = static_cast<Cycle>(
        static_cast<double>(attentionTbCycles(gp, n.inner, cols_local,
                                              tileRows)) *
        n.flopScale);

    for (GpuId g = 0; g < G; ++g) {
        for (int t = 0; t < out.numTiles; ++t) {
            TbDesc tb;
            tb.computeCycles = cost;
            tb.producesTile = t;
            tb.produceBytes = out.bytesPerTile;
            if (inT)
                tb.deps.push_back(depAt(*inT, t, g));
            k.grids[static_cast<std::size_t>(g)].push_back(
                std::move(tb));
        }
    }
    finishKernel(id, std::move(k));
}

void
GraphLowering::lowerGemmCol(OpId id)
{
    const OpNode &n = node(id);
    const GpuParams &gp = sys.config().gpu;
    std::int64_t cols_local = n.cols / G;

    TensorInfo &out =
        defineOutput(id, TensorLayout::perGpuPrivate, cols_local, 1);

    OpId in = realInput(id);
    const TensorInfo *inT =
        in != invalidId ? outT[static_cast<std::size_t>(in)] : nullptr;
    if (in != invalidId && !inT)
        panic("gemm %s: input tensor missing", n.name.c_str());

    bool input_is_stage = in != invalidId &&
        node(in).kind == OpKind::allGather &&
        (opts.collectives == CollectiveImpl::cais ||
         opts.collectives == CollectiveImpl::ladm);
    bool input_is_collective =
        in != invalidId && isCommOp(node(in).kind);

    KernelDesc k = newKernel(n.name);
    double from = 0.0, to = 1.0;
    smRange(id, from, to);
    k.smFrom = from;
    k.smTo = to;

    // Edge policy: staged inputs and T3's AG-GEMM overlap use tile
    // deps; everything else barriers unless the graph optimizer is on.
    bool barrier = !tileDeps(id) && !input_is_stage &&
                   !(opts.collectives == CollectiveImpl::t3 &&
                     input_is_collective);
    if (barrier)
        k.kernelDeps = barrierDeps(id);
    k.producesTracker = out.tracker;

    int nt = static_cast<int>(ceilDiv(cols_local, tiling.tileN));
    Cycle cost = static_cast<Cycle>(
        static_cast<double>(gemmTbCycles(gp, tiling, n.inner)) *
        n.flopScale);
    std::uint64_t portion = static_cast<std::uint64_t>(tiling.tileM) *
                            static_cast<std::uint64_t>(tiling.tileN) *
                            static_cast<std::uint64_t>(n.elemBytes);

    for (GpuId g = 0; g < G; ++g) {
        for (int i = 0; i < out.numTiles; ++i) {
            for (int j = 0; j < nt; ++j) {
                TbDesc tb;
                tb.computeCycles = cost;
                tb.producesTile = i;
                tb.produceBytes = portion;
                if (inT)
                    tb.deps.push_back(depAt(*inT, i, g));
                k.grids[static_cast<std::size_t>(g)].push_back(
                    std::move(tb));
            }
        }
    }
    finishKernel(id, std::move(k));
}

void
GraphLowering::lowerGemmRow(OpId id)
{
    const OpNode &n = node(id);
    const GpuParams &gp = sys.config().gpu;
    std::int64_t k_local = n.inner / G;

    OpId in = realInput(id);
    const TensorInfo *inT =
        in != invalidId ? outT[static_cast<std::size_t>(in)] : nullptr;
    if (in != invalidId && !inT)
        panic("gemm %s: input tensor missing", n.name.c_str());

    bool fused_reduction =
        !opts.reassociateToAllReduce &&
        (opts.collectives == CollectiveImpl::cais ||
         opts.collectives == CollectiveImpl::t3) &&
        consumerIsReduction(id);

    KernelDesc k = newKernel(n.name);
    double from = 0.0, to = 1.0;
    smRange(id, from, to);
    k.smFrom = from;
    k.smTo = to;
    if (!tileDeps(id))
        k.kernelDeps = barrierDeps(id);

    int nt_cols = static_cast<int>(ceilDiv(n.cols, tiling.tileN));
    Cycle cost = static_cast<Cycle>(
        static_cast<double>(gemmTbCycles(gp, tiling, k_local)) *
        n.flopScale);
    std::uint64_t portion = static_cast<std::uint64_t>(tiling.tileM) *
                            static_cast<std::uint64_t>(tiling.tileN) *
                            static_cast<std::uint64_t>(n.elemBytes);

    if (fused_reduction) {
        // The reduction op's output tensor is defined here and the
        // RS op itself folds away (GEMM TBs push red.cais / DMA
        // writes straight into it — track & trigger / CAIS style).
        OpId rs = graph.consumers(id).front();
        TensorInfo &rsOut = sys.defineTensor(
            node(rs).name, TensorLayout::rowShardedHome, n.rows,
            n.cols, n.elemBytes, tileRows, G);
        outT[static_cast<std::size_t>(rs)] = &rsOut;
        outT[static_cast<std::size_t>(id)] = &rsOut;
        k.producesTracker = rsOut.tracker;

        RemoteOpKind push_kind = RemoteOpKind::plainWrite;
        if (opts.collectives == CollectiveImpl::cais ||
            opts.t3NvlsReduction)
            push_kind = RemoteOpKind::caisRed;

        // Compiler pass: static index analysis + TB grouping + CAIS
        // lowering (groups only materialize under coordination).
        TbGroupingPlan plan;
        if (opts.caisCoordination &&
            push_kind == RemoteOpKind::caisRed) {
            IrKernel ir;
            ir.name = n.name;
            ir.gridX = nt_cols;
            ir.gridY = rsOut.numTiles;
            MemInstr red;
            red.op = Opcode::redGlobal;
            red.remote = true;
            red.bytesPerTb = portion;
            red.addr = AddressExpr::term(AddrVar::blockIdxY,
                                         static_cast<std::int64_t>(
                                             rsOut.bytesPerTile)) +
                       AddressExpr::term(AddrVar::blockIdxX,
                                         static_cast<std::int64_t>(
                                             portion));
            ir.accesses.push_back(red);
            auto lowered =
                lowerToCais(ir, sys.allocGroups(ir.numTbs()));
            plan = lowered.plan;
            k.preLaunchSync = true;
            k.preAccessSync = true;
        }

        std::vector<int> order = interleavedTiles(rsOut, G);
        for (GpuId g = 0; g < G; ++g) {
            for (int i : order) {
                for (int j = 0; j < nt_cols; ++j) {
                    TbDesc tb;
                    tb.computeCycles = cost;
                    if (inT)
                        tb.deps.push_back(depAt(*inT, i, g));
                    if (plan.grouped)
                        tb.group = plan.groupOfTb[static_cast<
                            std::size_t>(i * nt_cols + j)];
                    if (rsOut.tileOwner(i) == g) {
                        // The home GPU's partial reduces locally.
                        tb.producesTile = i;
                        tb.produceBytes = portion;
                    } else {
                        RemoteOp op;
                        op.kind = push_kind;
                        op.base = rsOut.tileAddr(i) +
                                  static_cast<std::uint64_t>(j) *
                                      portion;
                        op.bytes = portion;
                        op.expected = G - 1;
                        tb.pushOps.push_back(op);
                    }
                    k.grids[static_cast<std::size_t>(g)].push_back(
                        std::move(tb));
                }
            }
        }
        finishKernel(id, std::move(k));
        // The RS op is folded; record the producing kernel for it.
        lastKernel[static_cast<std::size_t>(rs)] =
            lastKernel[static_cast<std::size_t>(id)];
        return;
    }

    // Partials materialize; a collective kernel reduces them later.
    bool shared_window =
        opts.collectives == CollectiveImpl::nvls;
    TensorInfo &out = defineOutput(
        id,
        shared_window ? TensorLayout::replicated
                      : TensorLayout::perGpuPrivate,
        n.cols, 1);
    k.producesTracker = out.tracker;

    for (GpuId g = 0; g < G; ++g) {
        for (int i = 0; i < out.numTiles; ++i) {
            for (int j = 0; j < nt_cols; ++j) {
                TbDesc tb;
                tb.computeCycles = cost;
                tb.producesTile = i;
                tb.produceBytes = portion;
                if (inT)
                    tb.deps.push_back(depAt(*inT, i, g));
                k.grids[static_cast<std::size_t>(g)].push_back(
                    std::move(tb));
            }
        }
    }
    finishKernel(id, std::move(k));
}

// --------------------------------------------------------------------
// Communication operators
// --------------------------------------------------------------------

void
GraphLowering::lowerReduceScatter(OpId id)
{
    if (opts.reassociateToAllReduce) {
        lowerAllReduceAt(id);
        return;
    }
    if (outT[static_cast<std::size_t>(id)]) {
        // Folded into the producer GEMM (CAIS / T3).
        return;
    }

    OpId in = realInput(id);
    TensorInfo &partial = *outT[static_cast<std::size_t>(in)];

    if (opts.collectives == CollectiveImpl::nvls)
        emitNvlsReduceScatter(id, partial);
    else
        emitSoftwareReduceScatter(id, partial);
}

void
GraphLowering::lowerAllGather(OpId id)
{
    OpId in = realInput(id);
    TensorInfo &src = *outT[static_cast<std::size_t>(in)];

    if (opts.reassociateToAllReduce) {
        // The tensor is already replicated after the AllReduce.
        outT[static_cast<std::size_t>(id)] = &src;
        lastKernel[static_cast<std::size_t>(id)] =
            lastKernel[static_cast<std::size_t>(in)];
        return;
    }

    switch (opts.collectives) {
      case CollectiveImpl::cais: {
        // AG folds into a pull stage feeding the consumer GEMM.
        double from = 0.0, to = 1.0;
        auto consumers = graph.consumers(id);
        if (!consumers.empty())
            smRange(consumers.front(), from, to);
        emitPullStage(id, src, RemoteOpKind::caisLoad, from, to);
        return;
      }
      case CollectiveImpl::ladm:
        emitPullStage(id, src, RemoteOpKind::plainLoad, 0.0, 1.0);
        return;
      case CollectiveImpl::nvls:
        emitNvlsAllGather(id, src);
        return;
      case CollectiveImpl::t3:
        if (opts.t3NvlsAllGather)
            emitNvlsAllGather(id, src);
        else
            emitSoftwareAllGather(id, src);
        return;
      default:
        emitSoftwareAllGather(id, src);
        return;
    }
}

void
GraphLowering::lowerAllReduceAt(OpId rs_id)
{
    OpId in = realInput(rs_id);
    TensorInfo &partial = *outT[static_cast<std::size_t>(in)];

    switch (opts.collectives) {
      case CollectiveImpl::nvls:
        emitNvlsAllReduce(rs_id, partial);
        return;
      case CollectiveImpl::ladm:
        emitLadmAllReduce(rs_id, partial);
        return;
      default: {
        // Two-phase direct software AllReduce: RS into a scratch
        // shard, then AG back to every GPU (ring-equivalent volume).
        const OpNode &n = node(rs_id);
        TensorInfo &scratch = sys.defineTensor(
            n.name + ".scratch", TensorLayout::rowShardedHome, n.rows,
            n.cols, n.elemBytes, tileRows, G);

        bool pipelined = opts.pipelinedCollectives;
        const GpuParams &gp = sys.config().gpu;

        // Phase 1: every GPU ships its partial of tile i to owner(i).
        KernelDesc k1 = newKernel(n.name + ".rs");
        k1.commKernel = true;
        k1.schedPriority = 0;
        k1.launchOverhead += opts.commKernelExtraLaunch;
        k1.smFrom = opts.commSmFrom;
        k1.smTo = opts.commSmTo;
        if (!pipelined)
            k1.kernelDeps = barrierDeps(rs_id);
        k1.producesTracker = scratch.tracker;
        for (GpuId g = 0; g < G; ++g) {
            for (int i = 0; i < scratch.numTiles; ++i) {
                TbDesc tb;
                tb.computeCycles =
                    memBoundTbCycles(gp, scratch.bytesPerTile, 1.0) +
                    opts.perCommTbOverhead;
                tb.deps.push_back(depAt(partial, i, g));
                if (scratch.tileOwner(i) == g) {
                    tb.producesTile = i;
                    tb.produceBytes = scratch.bytesPerTile;
                } else {
                    RemoteOp op;
                    op.kind = RemoteOpKind::plainWrite;
                    op.protocolPad = true;
                    op.base = scratch.tileAddr(i);
                    op.bytes = scratch.bytesPerTile;
                    tb.pushOps.push_back(op);
                }
                k1.grids[static_cast<std::size_t>(g)].push_back(
                    std::move(tb));
            }
        }
        KernelId rs_k = sys.addKernel(std::move(k1));

        // Phase 2: owners broadcast reduced tiles to all peers.
        TensorInfo &out = defineOutput(
            rs_id, TensorLayout::perGpuPrivate, n.cols, 1);
        KernelDesc k2 = newKernel(n.name + ".ag");
        k2.commKernel = true;
        k2.schedPriority = 0;
        k2.launchOverhead += opts.commKernelExtraLaunch;
        k2.smFrom = opts.commSmFrom;
        k2.smTo = opts.commSmTo;
        if (!pipelined)
            k2.kernelDeps = {rs_k};
        k2.producesTracker = out.tracker;
        for (GpuId g = 0; g < G; ++g) {
            for (int i = 0; i < out.numTiles; ++i) {
                if (scratch.tileOwner(i) != g)
                    continue;
                TbDesc tb;
                tb.computeCycles =
                    memBoundTbCycles(gp, out.bytesPerTile, 1.0) +
                    opts.perCommTbOverhead;
                tb.deps.push_back(depAt(scratch, i, g));
                tb.producesTile = i;
                tb.produceBytes = out.bytesPerTile;
                for (GpuId p = 0; p < G; ++p) {
                    if (p == g)
                        continue;
                    RemoteOp op;
                    op.kind = RemoteOpKind::plainWrite;
                    op.protocolPad = true;
                    op.base = out.tileAddrAt(p, i);
                    op.bytes = out.bytesPerTile;
                    tb.pushOps.push_back(op);
                }
                k2.grids[static_cast<std::size_t>(g)].push_back(
                    std::move(tb));
            }
        }
        finishKernel(rs_id, std::move(k2));
        return;
      }
    }
}

// --------------------------------------------------------------------
// Collective kernel emitters
// --------------------------------------------------------------------

void
GraphLowering::emitNvlsReduceScatter(OpId rs, TensorInfo &partial)
{
    const OpNode &n = node(rs);
    TensorInfo &out =
        defineOutput(rs, TensorLayout::rowShardedHome, n.cols, G);

    KernelDesc k = newKernel(n.name + ".nvls-rs");
    k.commKernel = true;
    k.schedPriority = 0;
    k.launchOverhead += opts.commKernelExtraLaunch;
    k.smFrom = opts.commSmFrom;
    k.smTo = opts.commSmTo;
    if (!opts.pipelinedCollectives)
        k.kernelDeps = barrierDeps(rs);
    k.producesTracker = out.tracker;

    for (GpuId g = 0; g < G; ++g) {
        for (int i = 0; i < out.numTiles; ++i) {
            if (out.tileOwner(i) != g)
                continue;
            TbDesc tb;
            tb.computeCycles = opts.perCommTbOverhead;
            RemoteOp op;
            op.kind = RemoteOpKind::nvlsLdReduce;
            op.protocolPad = true;
            op.base = partial.tileAddr(i);
            op.bytes = partial.bytesPerTile;
            op.expected = G;
            tb.pullOps.push_back(op);
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile *
                              static_cast<std::uint64_t>(G);
            for (GpuId p = 0; p < G; ++p)
                tb.deps.push_back(TileRef{partial.tracker, i, p});
            k.grids[static_cast<std::size_t>(g)].push_back(
                std::move(tb));
        }
    }
    finishKernel(rs, std::move(k));
}

void
GraphLowering::emitNvlsAllGather(OpId ag, TensorInfo &in)
{
    const OpNode &n = node(ag);
    TensorInfo &out =
        defineOutput(ag, TensorLayout::replicated, n.cols, 1);

    KernelDesc k = newKernel(n.name + ".nvls-ag");
    k.commKernel = true;
    k.schedPriority = 0;
    k.launchOverhead += opts.commKernelExtraLaunch;
    k.smFrom = opts.commSmFrom;
    k.smTo = opts.commSmTo;
    // T3 keeps its coarse RS/LN/AG stage barriers.
    if (!opts.pipelinedCollectives ||
        opts.collectives == CollectiveImpl::t3)
        k.kernelDeps = barrierDeps(ag);
    k.producesTracker = out.tracker;

    for (GpuId g = 0; g < G; ++g) {
        for (int i = 0; i < out.numTiles; ++i) {
            if (in.tileOwner(i) != g)
                continue;
            TbDesc tb;
            tb.computeCycles = opts.perCommTbOverhead;
            RemoteOp op;
            op.kind = RemoteOpKind::nvlsSt;
            op.protocolPad = true;
            op.base = out.tileAddr(i);
            op.bytes = out.bytesPerTile;
            tb.pushOps.push_back(op);
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
            tb.deps.push_back(depAt(in, i, g));
            k.grids[static_cast<std::size_t>(g)].push_back(
                std::move(tb));
        }
    }
    finishKernel(ag, std::move(k));
}

void
GraphLowering::emitNvlsAllReduce(OpId rs, TensorInfo &partial)
{
    const OpNode &n = node(rs);
    TensorInfo &out =
        defineOutput(rs, TensorLayout::replicated, n.cols, 1);

    KernelDesc k = newKernel(n.name + ".nvls-ar");
    k.commKernel = true;
    k.schedPriority = 0;
    k.launchOverhead += opts.commKernelExtraLaunch;
    k.smFrom = opts.commSmFrom;
    k.smTo = opts.commSmTo;
    if (!opts.pipelinedCollectives)
        k.kernelDeps = barrierDeps(rs);
    k.producesTracker = out.tracker;

    int per_gpu = (out.numTiles + G - 1) / G;
    for (GpuId g = 0; g < G; ++g) {
        for (int i = 0; i < out.numTiles; ++i) {
            if (i / per_gpu != g)
                continue;
            TbDesc tb;
            tb.computeCycles = opts.perCommTbOverhead;
            RemoteOp pull;
            pull.kind = RemoteOpKind::nvlsLdReduce;
            pull.protocolPad = true;
            pull.base = partial.tileAddr(i);
            pull.bytes = partial.bytesPerTile;
            pull.expected = G;
            tb.pullOps.push_back(pull);
            RemoteOp push;
            push.kind = RemoteOpKind::nvlsSt;
            push.protocolPad = true;
            push.base = out.tileAddr(i);
            push.bytes = out.bytesPerTile;
            tb.pushOps.push_back(push);
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
            for (GpuId p = 0; p < G; ++p)
                tb.deps.push_back(TileRef{partial.tracker, i, p});
            k.grids[static_cast<std::size_t>(g)].push_back(
                std::move(tb));
        }
    }
    finishKernel(rs, std::move(k));
}

void
GraphLowering::emitSoftwareReduceScatter(OpId rs, TensorInfo &partial)
{
    const OpNode &n = node(rs);
    const GpuParams &gp = sys.config().gpu;
    TensorInfo &out =
        defineOutput(rs, TensorLayout::rowShardedHome, n.cols, G);

    KernelDesc k = newKernel(n.name + ".sw-rs");
    k.commKernel = true;
    k.schedPriority = 0;
    k.launchOverhead += opts.commKernelExtraLaunch;
    k.smFrom = opts.commSmFrom;
    k.smTo = opts.commSmTo;
    if (!opts.pipelinedCollectives)
        k.kernelDeps = barrierDeps(rs);
    k.producesTracker = out.tracker;

    std::vector<int> sw_order = interleavedTiles(out, G);
    for (GpuId g = 0; g < G; ++g) {
        for (int i : sw_order) {
            TbDesc tb;
            tb.computeCycles =
                memBoundTbCycles(gp, out.bytesPerTile, 1.0) +
                opts.perCommTbOverhead;
            tb.deps.push_back(depAt(partial, i, g));
            if (out.tileOwner(i) == g) {
                tb.producesTile = i;
                tb.produceBytes = out.bytesPerTile;
            } else {
                RemoteOp op;
                op.kind = RemoteOpKind::plainWrite;
                op.protocolPad = true;
                op.base = out.tileAddr(i);
                op.bytes = out.bytesPerTile;
                tb.pushOps.push_back(op);
            }
            k.grids[static_cast<std::size_t>(g)].push_back(
                std::move(tb));
        }
    }
    finishKernel(rs, std::move(k));
}

void
GraphLowering::emitSoftwareAllGather(OpId ag, TensorInfo &in)
{
    const OpNode &n = node(ag);
    const GpuParams &gp = sys.config().gpu;
    TensorInfo &out =
        defineOutput(ag, TensorLayout::perGpuPrivate, n.cols, 1);

    KernelDesc k = newKernel(n.name + ".sw-ag");
    k.commKernel = true;
    k.schedPriority = 0;
    k.launchOverhead += opts.commKernelExtraLaunch;
    k.smFrom = opts.commSmFrom;
    k.smTo = opts.commSmTo;
    // T3 keeps its coarse RS/LN/AG stage barriers.
    if (!opts.pipelinedCollectives ||
        opts.collectives == CollectiveImpl::t3)
        k.kernelDeps = barrierDeps(ag);
    k.producesTracker = out.tracker;

    for (GpuId g = 0; g < G; ++g) {
        for (int i = 0; i < out.numTiles; ++i) {
            if (in.tileOwner(i) != g)
                continue;
            TbDesc tb;
            tb.computeCycles =
                memBoundTbCycles(gp, out.bytesPerTile, 1.0) +
                opts.perCommTbOverhead;
            tb.deps.push_back(depAt(in, i, g));
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
            for (GpuId p = 0; p < G; ++p) {
                if (p == g)
                    continue;
                RemoteOp op;
                op.kind = RemoteOpKind::plainWrite;
                op.protocolPad = true;
                op.base = out.tileAddrAt(p, i);
                op.bytes = out.bytesPerTile;
                tb.pushOps.push_back(op);
            }
            k.grids[static_cast<std::size_t>(g)].push_back(
                std::move(tb));
        }
    }
    finishKernel(ag, std::move(k));
}

void
GraphLowering::emitLadmAllReduce(OpId rs, TensorInfo &partial)
{
    const OpNode &n = node(rs);
    const GpuParams &gp = sys.config().gpu;
    TensorInfo &out =
        defineOutput(rs, TensorLayout::perGpuPrivate, n.cols, 1);

    KernelDesc k = newKernel(n.name + ".ladm-ar");
    k.commKernel = true;
    k.kernelDeps = barrierDeps(rs);
    k.producesTracker = out.tracker;

    for (GpuId g = 0; g < G; ++g) {
        for (int i = 0; i < out.numTiles; ++i) {
            TbDesc tb;
            // Locality-aware placement dedups reads within a GPU but
            // every GPU still pulls every peer's partial remotely.
            for (GpuId p = 0; p < G; ++p) {
                tb.deps.push_back(TileRef{partial.tracker, i, p});
                if (p == g)
                    continue;
                RemoteOp op;
                op.kind = RemoteOpKind::plainLoad;
                op.base = partial.tileAddrAt(p, i);
                op.bytes = partial.bytesPerTile;
                tb.pullOps.push_back(op);
            }
            tb.computeCycles = memBoundTbCycles(
                gp,
                partial.bytesPerTile * static_cast<std::uint64_t>(G),
                1.0);
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
            k.grids[static_cast<std::size_t>(g)].push_back(
                std::move(tb));
        }
    }
    finishKernel(rs, std::move(k));
}

TensorInfo &
GraphLowering::emitPullStage(OpId ag, TensorInfo &src,
                             RemoteOpKind kind, double sm_from,
                             double sm_to)
{
    const OpNode &n = node(ag);
    TensorInfo &out =
        defineOutput(ag, TensorLayout::perGpuPrivate, n.cols, 1);

    KernelDesc k = newKernel(n.name + ".stage");
    k.commKernel = true;
    k.smFrom = sm_from;
    k.smTo = sm_to;
    if (!tileDeps(ag))
        k.kernelDeps = barrierDeps(ag);
    k.producesTracker = out.tracker;

    // Compiler pass over the stage kernel: the load index depends
    // only on blockIdx (GPU-invariant) -> mergeable, grouped.
    TbGroupingPlan plan;
    if (opts.caisCoordination && kind == RemoteOpKind::caisLoad) {
        IrKernel ir;
        ir.name = n.name + ".stage";
        ir.gridX = out.numTiles;
        ir.gridY = 1;
        MemInstr ld;
        ld.op = Opcode::ldGlobal;
        ld.remote = true;
        ld.bytesPerTb = src.bytesPerTile;
        ld.addr = AddressExpr::term(
            AddrVar::blockIdxX,
            static_cast<std::int64_t>(src.bytesPerTile));
        ir.accesses.push_back(ld);
        auto lowered = lowerToCais(ir, sys.allocGroups(ir.numTbs()));
        plan = lowered.plan;
        k.preLaunchSync = true;
        k.preAccessSync = true;
    }

    std::vector<int> order = interleavedTiles(src, G);
    for (GpuId g = 0; g < G; ++g) {
        for (int i : order) {
            TbDesc tb;
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
            tb.deps.push_back(depAt(src, i, g));
            if (plan.grouped)
                tb.group =
                    plan.groupOfTb[static_cast<std::size_t>(i)];
            if (src.tileOwner(i) != g) {
                RemoteOp op;
                op.kind = kind;
                op.base = src.tileAddr(i);
                op.bytes = src.bytesPerTile;
                op.expected = G - 1;
                tb.pullOps.push_back(op);
            }
            k.grids[static_cast<std::size_t>(g)].push_back(
                std::move(tb));
        }
    }
    finishKernel(ag, std::move(k));
    return out;
}

} // namespace cais
