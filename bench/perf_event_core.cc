/**
 * @file
 * Perf-regression harness for the event core (google-benchmark).
 *
 * Measures events/sec on two workload shapes:
 *
 *  - a synthetic "hop storm" that mimics the deliver/wake/credit
 *    pattern CreditLink generates: many concurrent self-rescheduling
 *    chains with mixed near-future deltas;
 *  - a fig12-shaped end-to-end run (CAIS strategy over a scaled-down
 *    Mega-GPT sub-layer) counting real simulator events.
 *
 * The hop storm also runs against a local replica of the seed
 * implementation (std::function callbacks in one binary heap), the
 * baseline of the CI ratio gate. CI uses the emitted
 * BENCH_eventcore.json to enforce a throughput floor; see
 * .github/workflows/ci.yml.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "runtime/simulation_driver.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

/**
 * Replica of the seed event queue: type-erased std::function
 * callbacks (one heap allocation per capture that outgrows the SBO)
 * ordered by a std::priority_queue binary heap. Kept here so the
 * benchmark keeps an honest baseline after the simulator itself
 * moved on.
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Cycle now() const { return curTick; }

    void
    schedule(Cycle when, Callback cb)
    {
        heap.push(Entry{when, nextSeq++, std::move(cb)});
    }

    void scheduleAfter(Cycle delta, Callback cb)
    {
        schedule(curTick + delta, std::move(cb));
    }

    std::uint64_t
    runAll()
    {
        std::uint64_t n = 0;
        while (!heap.empty()) {
            Entry e = std::move(const_cast<Entry &>(heap.top()));
            heap.pop();
            curTick = e.when;
            e.cb();
            ++n;
        }
        return n;
    }

  private:
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    Cycle curTick = 0;
    std::uint64_t nextSeq = 0;
};

/** Payload sized like a Packet (104 bytes, causal-profiler
 *  provenance stamp included) so captures exercise the same SBO; no
 *  profiler is attached, so the floors in CI also lock the cost of
 *  the disabled profiling path. */
struct HopPayload
{
    std::uint64_t words[13] = {};
};

constexpr int kChains = 1024;
constexpr int kHopsPerChain = 512;

/**
 * Drive @p eq through the hop storm: kChains concurrent chains, each
 * rescheduling itself kHopsPerChain times with deltas cycling through
 * a serialization-like {1, 37, 250} pattern (same-cycle drains, short
 * serialization, propagation latency).
 */
template <typename Queue>
std::uint64_t
hopStorm(Queue &eq)
{
    static constexpr Cycle deltas[3] = {1, 37, 250};
    std::uint64_t done = 0;
    struct Chain
    {
        Queue *q;
        std::uint64_t *done;
        int hops = 0;
        HopPayload payload;

        void
        operator()()
        {
            payload.words[0] += static_cast<std::uint64_t>(hops);
            if (++hops < kHopsPerChain) {
                q->scheduleAfter(deltas[hops % 3], *this);
            } else {
                *done += payload.words[0];
            }
        }
    };
    for (int c = 0; c < kChains; ++c)
        eq.schedule(static_cast<Cycle>(c % 5),
                    Chain{&eq, &done, 0, HopPayload{}});
    eq.runAll();
    return done;
}

void
BM_HopStorm_SeedReplica(benchmark::State &state)
{
    for (auto _ : state) {
        LegacyEventQueue eq;
        benchmark::DoNotOptimize(hopStorm(eq));
    }
    state.SetItemsProcessed(state.iterations() * kChains * kHopsPerChain);
}
BENCHMARK(BM_HopStorm_SeedReplica);

void
BM_HopStorm_Bucketed(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(hopStorm(eq));
    }
    state.SetItemsProcessed(state.iterations() * kChains * kHopsPerChain);
}
BENCHMARK(BM_HopStorm_Bucketed);

/** Fig. 12-shaped job: CAIS on a scaled-down Mega-GPT L3 sub-layer. */
RunResult
fig12Shaped()
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    StrategySpec spec = strategyByName("CAIS");
    OpGraph graph = buildSubLayer(m, SubLayerId::L3);
    return runGraph(spec, graph, cfg, subLayerName(SubLayerId::L3));
}

void
BM_Fig12Shaped_Bucketed(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        RunResult r = fig12Shaped();
        events += r.eventsExecuted;
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Fig12Shaped_Bucketed);

} // namespace

/**
 * Default to emitting BENCH_eventcore.json next to the binary so the
 * CI perf-smoke job (and ad-hoc local runs) always get a machine-
 * readable report; explicit --benchmark_out flags win.
 */
int
main(int argc, char **argv)
{
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--benchmark_out", 15) == 0)
            has_out = true;

    std::vector<char *> args(argv, argv + argc);
    std::string out = "--benchmark_out=BENCH_eventcore.json";
    std::string fmt = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out.data());
        args.push_back(fmt.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
