/**
 * @file
 * Stock NVLS in-switch computing unit (communication-centric), per
 * Klenk et al. [24] and NVIDIA's third-generation NVSwitch: handles
 * the two multimem primitives the NVLS strategies issue.
 *
 *  - multimem.st        : push-mode multicast store. The switch
 *                         replicates the payload to every other GPU.
 *  - multimem.ld_reduce : pull-mode gather-reduce. The switch fetches
 *                         the addressed data from every GPU's replica,
 *                         reduces in-flight, and returns the result to
 *                         the requester.
 *
 * multimem.red (push-mode reduce-to-all) is not modelled: TP-/SP-NVLS
 * reduce with ld_reduce, and T3-NVLS sends its reductions through the
 * switch reducer as caisRed (MergeUnit).
 *
 * On multi-tier fabrics each primitive runs hierarchically: a leaf
 * handles its local GPUs and exchanges one aggregate packet per
 * primitive with the spine (tierHop 1 up, tierHop 2 down), and the
 * spine combines/distributes across groups.
 */

#ifndef CAIS_SWITCHCOMPUTE_NVLS_UNIT_HH
#define CAIS_SWITCHCOMPUTE_NVLS_UNIT_HH

#include <cstdint>
#include <unordered_map>

#include "common/metrics.hh"
#include "common/stats.hh"
#include "noc/switch_chip.hh"
#include "switchcompute/tier.hh"

namespace cais
{

/** NVLS unit tunables. */
struct NvlsParams
{
    /** In-flight reduction latency charged per completed session. */
    Cycle reduceDelay = 8;
};

/** The switch-resident NVLS engine. */
class NvlsUnit : public Probe
{
  public:
    NvlsUnit(SwitchChip &sw, const NvlsParams &params = {},
             const TierInfo &tier = {});

    void handleMultimemSt(Packet &&pkt);
    void handleLdReduceReq(Packet &&pkt);

    /** Read response for a gather this unit issued (cookie-tagged). */
    void handleReadResp(Packet &&pkt);

    /** Reduced tier response returned to this switch (multi-tier). */
    void handleLdReduceResp(Packet &&pkt);

    std::uint64_t multicasts() const { return stMulticasts.value(); }
    std::uint64_t gatherReduces() const { return gathersDone.value(); }
    std::size_t pendingSessions() const { return gathers.size(); }

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        reg.addCounter(prefix + ".multicasts", &stMulticasts);
        reg.addCounter(prefix + ".gatherReduces", &gathersDone);
    }

  private:
    struct GatherSession
    {
        /** Node the reduced response returns to: the requesting GPU
         *  at its own leaf, the downstream switch for tier legs. */
        int requester = invalidId;
        Addr addr = 0;
        std::uint32_t bytes = 0;
        std::uint32_t pad = 0;
        std::uint64_t hubCookie = 0;
        int arrived = 0;
        int expected = 0;
        KernelId kernel = invalidId;
        TbId tb = invalidId;
        Cycle profStart = 0; ///< profiler: session-open cycle
    };

    void completeGather(std::uint64_t id, GatherSession &s);
    void replicateLocal(const Packet &pkt);

    SwitchChip &sw;
    NvlsParams p;
    TierInfo tier;

    std::unordered_map<std::uint64_t, GatherSession> gathers;
    std::uint64_t nextGatherId = 1;

    Counter stMulticasts;
    Counter gathersDone;
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_NVLS_UNIT_HH
