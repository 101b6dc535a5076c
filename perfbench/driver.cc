/**
 * @file
 * perfbench_driver: runs one benchmark workload against the public
 * cais API and streams what it measured, one JSON record per stdout
 * line. perfbench/run.py builds this program, drives it and turns the
 * records into the benchmark's metrics; see perfbench/README.md.
 *
 *   perfbench_driver MODE --workload NAME --seed N --seconds S --out DIR
 *
 * MODE:
 *   plain   time whole simulations for S seconds: runGraph() on the
 *           single-graph workloads, whole SweepRunner sweeps on
 *           sweep-small;
 *   traced  alternate untraced simulations with a step-by-step replica
 *           of runGraph() that records a span around each public step
 *           (spans are written to DIR/spans.json at exit).
 *
 * Either mode runs every simulation of the workload at least once, so a
 * tiny S runs each once (run.py --record-expected uses that).
 *
 * Records ("rec" field): "plan" (the workload's jobs), "setup" (one
 * workload set-up), "op" (one simulation: host wall seconds, the
 * host-speed probe measured next to it, exact simulated results and a
 * digest of its RunResult), "sweep" (one SweepRunner pass) and "end"
 * (peak RSS). A simulation that fails verification ends the process
 * through the library's fatal(), so a missing "end" record means a
 * failed op.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/bound_model.hh"
#include "analysis/verify.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "runtime/simulation_driver.hh"
#include "runtime/sweep.hh"
#include "runtime/system.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

/** Seconds since process start (span and record timestamps). */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - processStart)
        .count();
}

/** Workers of the sweep-small pool (fixed, independent of the host). */
constexpr int sweepWorkers = 2;

/** Workload set-ups timed per run; setup_s is their median. */
constexpr int setupReps = 15;

/**
 * Host-speed probe: a fixed hash-table workload timed next to every
 * simulation. The host this benchmark was defined on drifts in speed
 * by up to 1.6x over tens of seconds; run.py divides each simulation's
 * wall time by its probe time so the reported host times track the
 * simulator, not the drift. The probe is benchmark code, so a change
 * to the simulator never changes it.
 */
double
probeSeconds()
{
    constexpr std::uint64_t inserts = 250000;
    const double t0 = now();
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < inserts; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        table[x % (inserts / 2)] += x;
    }
    const double t = now() - t0;
    if (table.size() > inserts) // never true; keeps the loop alive
        std::abort();
    return t;
}

/** One simulation a workload runs. */
struct Job
{
    std::string name; ///< "<strategy>/<graph>@<preset>"
    StrategySpec spec;
    std::shared_ptr<const OpGraph> graph;
    RunConfig cfg;
};

struct Workload
{
    std::vector<Job> jobs;
    bool sweep = false;    ///< jobs run as SweepRunner sweeps
    bool observed = false; ///< ops write metrics/profile/trace files
};

RunConfig
presetConfig(const std::string &preset, std::uint64_t seed)
{
    RunConfig cfg;
    cfg.topology = preset;
    cfg.numGpus = FabricParams::findPreset(preset)->numGpus;
    cfg.seed = seed;
    // info() prints to stdout, which carries the records.
    cfg.verbosity = LogLevel::quiet;
    return cfg;
}

/** The graphs of the cais_bound acceptance matrix. */
std::vector<std::pair<std::string, OpGraph>>
matrixGraphs(const LlmConfig &m)
{
    return {
        {"L1", buildSubLayer(m, SubLayerId::L1)},
        {"L2", buildSubLayer(m, SubLayerId::L2)},
        {"L3", buildSubLayer(m, SubLayerId::L3)},
        {"L4", buildSubLayer(m, SubLayerId::L4)},
        {"layer_fwd", buildTransformerLayer(m, Pass::forward)},
        {"layer_bwd", buildTransformerLayer(m, Pass::backward)},
    };
}

/** Build @p name's jobs for @p seed; false on an unknown name. */
bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    w = Workload{};
    if (name == "sweep-small") {
        w.sweep = true;
        auto graphs = matrixGraphs(megaGpt4B().scaled(0.25, 0.125));
        // nvl72 first: its jobs are the longest, so the pool drains
        // evenly.
        for (const char *preset : {"nvl72", "dgx-h100"}) {
            for (const StrategySpec &spec : allStrategies()) {
                // One LADM@nvl72 sub-layer alone outlasts the rest of
                // the sweep (README.md).
                if (spec.name == "LADM" && std::string(preset) == "nvl72")
                    continue;
                for (const auto &[gname, g] : graphs)
                    w.jobs.push_back(
                        {spec.name + "/" + gname + "@" + preset, spec,
                         std::make_shared<const OpGraph>(g),
                         presetConfig(preset, seed)});
            }
        }
        return true;
    }
    std::string strategy = "CAIS";
    std::string graph = "layer_fwd";
    double dim = 0.25;
    double tok = 0.125;
    if (name == "t3-nvl72") {
        strategy = "T3";
    } else if (name == "cais-nvl72-observed") {
        // Observation roughly triples an op; a smaller layer keeps
        // enough ops in a run for a tail percentile.
        w.observed = true;
        graph = "layer_fwd(0.125,0.0625)";
        dim = 0.125;
        tok = 0.0625;
    } else if (name != "cais-nvl72") {
        return false;
    }
    w.jobs.push_back(
        {strategy + "/" + graph + "@nvl72", strategyByName(strategy),
         std::make_shared<const OpGraph>(buildTransformerLayer(
             llama7B().scaled(dim, tok), Pass::forward)),
         presetConfig("nvl72", seed)});
    return true;
}

/** FNV-1a over the RunResult fields a perturbation would move. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        for (const char *p = buf; *p; ++p) {
            h ^= static_cast<unsigned char>(*p);
            h *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

std::string
digestOf(const RunResult &r)
{
    Digest d;
    for (std::uint64_t v :
         {std::uint64_t{r.makespan}, r.eventsExecuted, r.wireBytes,
          r.staggerSamples, r.peakMergeBytes, r.mergeLoadReqs,
          r.mergeRedReqs, r.mergeLoadHits, r.mergeRedHits,
          r.mergeFetches, r.lruEvictions, r.timeoutEvictions,
          r.throttleHints, r.sessionsClosed,
          std::uint64_t{r.commKernelCycles},
          std::uint64_t{r.computeKernelCycles},
          std::uint64_t{r.boundComposite}})
        d.add(v);
    for (double v : {r.avgUtil, r.upUtil, r.dnUtil, r.gpuUtil,
                     r.staggerUs})
        d.add(v);
    for (const KernelTiming &k : r.kernels) {
        d.add(std::uint64_t{k.start});
        d.add(std::uint64_t{k.finish});
    }
    for (double v : r.utilSeries)
        d.add(v);
    return d.hex();
}

/** Exact per-layer work counts read from a finished run's registry. */
struct Counts
{
    std::uint64_t paths = 0;
    std::uint64_t packets = 0;
    std::uint64_t tbsDispatched = 0;
    std::uint64_t hubChunks = 0;
    std::uint64_t syncRequests = 0;
    std::uint64_t nvlsOps = 0;
};

Counts
countsOf(const MetricSnapshot &snap)
{
    Counts c;
    c.paths = snap.all().size();
    c.packets = snap.sumU64("link.*.packets");
    c.tbsDispatched = snap.sumU64("gpu*.sched.dispatched");
    c.hubChunks = snap.sumU64("gpu*.hub.chunksInjected");
    c.syncRequests = snap.sumU64("gpu*.sync.requests");
    c.nvlsOps = snap.sumU64("*.nvls.multicasts") +
                snap.sumU64("*.nvls.gatherReduces") +
                snap.sumU64("*.nvls.pushReduces");
    return c;
}

/** One op's record; the caller adds mode-specific fields and ends it. */
JsonWriter
opRecord(const char *kind, const Job &job, int op, double wall,
         double probe, const RunResult &r)
{
    JsonWriter w;
    w.beginObject();
    w.field("rec", "op");
    w.field("kind", kind);
    w.field("job", job.name);
    w.field("op", op);
    w.field("wall_s", wall);
    w.field("probe_s", probe);
    w.field("makespan", std::uint64_t{r.makespan});
    w.field("events", r.eventsExecuted);
    w.field("wire_bytes", r.wireBytes);
    w.field("merge_reqs", r.mergeLoadReqs + r.mergeRedReqs);
    w.field("merge_hits", r.mergeLoadHits + r.mergeRedHits);
    w.field("evictions", r.lruEvictions + r.timeoutEvictions);
    w.field("digest", digestOf(r));
    return w;
}

void
emit(JsonWriter &w)
{
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
}

/** A named host-time interval of the traced run. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index into the same thread's log; -1 = root
    int op = 0;
};

/** Spans of one thread, kept in memory until exit. */
class SpanLog
{
  public:
    explicit SpanLog(int thread) : thread(thread) {}

    /** Time @p fn as span @p name under @p parent. */
    template <typename Fn>
    void
    span(const std::string &name, int parent, int op, Fn &&fn)
    {
        const std::size_t idx = spans.size();
        spans.push_back({name, now(), 0.0, parent, op});
        fn();
        spans[idx].end = now();
    }

    int
    open(const std::string &name, int op)
    {
        spans.push_back({name, now(), 0.0, -1, op});
        return static_cast<int>(spans.size()) - 1;
    }

    void close(int idx) { spans[static_cast<std::size_t>(idx)].end = now(); }

    void
    write(JsonWriter &w) const
    {
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            w.beginObject();
            w.field("name", s.name);
            w.field("start_s", s.start);
            w.field("end_s", s.end);
            w.field("parent", s.parent);
            w.field("op", s.op);
            w.field("thread", thread);
            w.endObject();
        }
    }

  private:
    int thread;
    std::vector<Span> spans;
};

/**
 * runGraph() of simulation_driver.cc, one public step at a time, with
 * a span around each step (observation off). Its RunResult must equal
 * runGraph()'s bit for bit; the caller checks that.
 */
RunResult
tracedRun(const Job &job, int op, SpanLog &log, Counts &counts)
{
    const int root = log.open("op", op);
    const RunConfig &cfg = job.cfg;
    ScopedLogLevel verbosity(cfg.verbosity);
    std::unique_ptr<System> sys;
    MetricRegistry reg;
    log.span("runtime.construct", root, op, [&] {
        cfg.validate();
        sys = std::make_unique<System>(cfg.toSystemConfig(job.spec));
        sys->registerMetrics(reg);
    });
    GraphLowering lowering(*sys, *job.graph, job.spec.opts);
    log.span("runtime.lower", root, op, [&] { lowering.lower(); });
    verify::Options vo;
    vo.strategy = job.spec.name;
    vo.workload = job.name;
    vo.suppress.insert(cfg.verifySuppress.begin(), cfg.verifySuppress.end());
    vo.v9SlackRatio = cfg.boundSlackRatio;
    log.span("analysis.verify_pre", root, op, [&] {
        verify::VerifyResult vr = verify::verifySystem(*sys, vo);
        if (!vr.ok())
            fatal("static verification failed for %s:\n%s",
                  job.name.c_str(), vr.text().c_str());
    });
    log.span("runtime.run", root, op, [&] { sys->run(); });

    RunResult r;
    r.strategy = job.spec.name;
    r.workload = job.name;
    r.makespan = sys->makespan();
    BoundResult bound;
    log.span("analysis.bound", root, op, [&] {
        bound = computeBound(*sys);
    });
    r.boundComposite = bound.composite;
    r.boundCompute = bound.smCompute;
    r.boundHbm = bound.hbm;
    r.boundLink = bound.linkSerialization;
    r.boundMerge = bound.mergeService;
    r.boundCritPath = bound.criticalPath;
    r.boundBinding = bound.binding;

    std::optional<MetricSnapshot> snapshot;
    log.span("common.metrics.snapshot", root, op, [&] {
        snapshot.emplace(reg.snapshot());
    });
    const MetricSnapshot &snap = *snapshot;
    log.span("common.metrics.harvest", root, op, [&] {
        r.eventsExecuted = snap.sumU64("eventq.executed");
        r.wireBytes = snap.sumU64("link.*.wireBytes");
        r.mergeLoadReqs = snap.sumU64("*.merge.loadReqs");
        r.mergeRedReqs = snap.sumU64("*.merge.redReqs");
        r.mergeLoadHits = snap.sumU64("*.merge.loadHits");
        r.mergeRedHits = snap.sumU64("*.merge.redHits");
        r.mergeFetches = snap.sumU64("*.merge.fetches");
        r.sessionsClosed = snap.sumU64("*.merge.sessionsClosed");
        r.lruEvictions = snap.sumU64("*.merge.evictions.lru");
        r.timeoutEvictions = snap.sumU64("*.merge.evictions.timeout");
        r.throttleHints = snap.sumU64("*.merge.throttle.hintsSent");
        r.peakMergeBytes = snap.maxU64("*.merge.peakTableBytes");
        double stagger_weighted = 0.0;
        std::uint64_t stagger_n = 0;
        snap.forEach("*.merge.stagger",
                     [&](const std::string &, const MetricValue &v) {
            stagger_weighted += v.mean * static_cast<double>(v.count);
            stagger_n += v.count;
        });
        r.staggerSamples = stagger_n;
        r.staggerUs = stagger_n
            ? stagger_weighted / static_cast<double>(stagger_n) /
                  static_cast<double>(cyclesPerUs)
            : 0.0;
        Cycle end = r.makespan ? r.makespan : 1;
        r.avgUtil = sys->fabric().avgUtilization(0, end);
        r.upUtil = sys->fabric().dirUtilization(true, 0, end);
        r.dnUtil = sys->fabric().dirUtilization(false, 0, end);
        r.gpuUtil = sys->gpuUtilization();
        if (const MetricValue *ts = snap.find("fabric.utilSeries")) {
            r.utilSeries = ts->bins;
            r.utilBinWidth = ts->binWidth;
        }
        for (std::size_t k = 0; k < sys->numKernels(); ++k) {
            const KernelId id = static_cast<KernelId>(k);
            KernelTiming t;
            t.name = sys->kernel(id).name;
            t.comm = sys->kernel(id).commKernel;
            t.start = sys->kernelStartTime(id);
            t.finish = sys->kernelFinishTime(id);
            if (t.finish > t.start) {
                if (t.comm)
                    r.commKernelCycles += t.finish - t.start;
                else
                    r.computeKernelCycles += t.finish - t.start;
            }
            r.kernels.push_back(std::move(t));
        }
    });
    log.span("analysis.verify_post", root, op, [&] {
        verify::VerifyResult pr = verify::verifyPostRun(
            *sys, bound, r.makespan, nullptr, vo);
        if (!pr.ok())
            fatal("post-run verification failed for %s:\n%s",
                  job.name.c_str(), pr.text().c_str());
    });
    log.close(root);
    // Outside every timed step: the per-layer work counts.
    counts = countsOf(snap);
    return r;
}

void
addCounts(JsonWriter &w, const Counts &c)
{
    w.field("paths", c.paths);
    w.field("packets", c.packets);
    w.field("tbs_dispatched", c.tbsDispatched);
    w.field("hub_chunks", c.hubChunks);
    w.field("sync_requests", c.syncRequests);
    w.field("nvls_ops", c.nvlsOps);
}

/** One workload set-up: build the job list and bring up the first job's
 *  System (construct, register metrics, lower). */
double
timedSetup(const std::string &name, std::uint64_t seed)
{
    const double t0 = now();
    Workload w;
    makeWorkload(name, seed, w);
    for (const Job &j : w.jobs)
        j.cfg.validate();
    const Job &first = w.jobs.front();
    System sys(first.cfg.toSystemConfig(first.spec));
    MetricRegistry reg;
    sys.registerMetrics(reg);
    GraphLowering lowering(sys, *first.graph, first.spec.opts);
    lowering.lower();
    return now() - t0;
}

/** Files an observed op writes; returns their total size and removes
 *  them. */
std::uint64_t
collectArtifacts(const RunConfig &cfg)
{
    std::uint64_t bytes = 0;
    for (const std::string &p :
         {cfg.metricsPath, cfg.profilePath, cfg.tracePath}) {
        std::error_code ec;
        const std::uintmax_t size = std::filesystem::file_size(p, ec);
        if (ec)
            fatal("observed op wrote no %s", p.c_str());
        bytes += size;
        std::filesystem::remove(p, ec);
    }
    return bytes;
}

Job
observedJob(const Job &job, const std::string &out)
{
    Job o = job;
    o.cfg.metricsPath = out + "/observed.metrics.json";
    o.cfg.profilePath = out + "/observed.profile.json";
    o.cfg.tracePath = out + "/observed.trace.json";
    return o;
}

/** Run one op through runGraph() and emit its record. */
RunResult
plainOp(const char *kind, const Job &job, int op)
{
    const double probe = probeSeconds();
    const double t0 = now();
    RunResult r = runGraph(job.spec, *job.graph, job.cfg, job.name);
    const double wall = now() - t0;
    JsonWriter w = opRecord(kind, job, op, wall, probe, r);
    if (!job.cfg.metricsPath.empty())
        w.field("artifact_bytes", collectArtifacts(job.cfg));
    emit(w);
    return r;
}

/** Per-job timing of one SweepRunner pass, written by the worker that
 *  runs the job and read after the pool has joined. */
struct JobClock
{
    std::thread::id worker;
    double probeStart = 0.0;
    double probe = 0.0;
    double start = 0.0;
};

/**
 * One SweepRunner pass over the workload. Each job's graph builder
 * (called on the worker right before runGraph) first runs the probe,
 * then stamps the job start; a job ends where the next job on the same
 * worker starts its probe, or where the pass ends.
 */
std::vector<RunResult>
sweepPass(const Workload &wl, int &op)
{
    std::vector<JobClock> clocks(wl.jobs.size());
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
        const Job &j = wl.jobs[i];
        SweepJob sj;
        sj.spec = j.spec;
        sj.cfg = j.cfg;
        sj.workload = j.name;
        sj.graph = [&clock = clocks[i], graph = j.graph]() {
            clock.worker = std::this_thread::get_id();
            clock.probeStart = now();
            clock.probe = probeSeconds();
            clock.start = now();
            return *graph;
        };
        jobs.push_back(std::move(sj));
    }
    SweepRunner runner(sweepWorkers);
    const double t0 = now();
    std::vector<RunResult> results = runner.run(jobs);
    const double t1 = now();

    std::vector<double> ends(jobs.size(), t1);
    std::map<std::thread::id, std::vector<std::size_t>> perWorker;
    for (std::size_t i = 0; i < clocks.size(); ++i)
        perWorker[clocks[i].worker].push_back(i);
    for (auto &[worker, idx] : perWorker) {
        std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
            return clocks[a].start < clocks[b].start;
        });
        for (std::size_t k = 0; k + 1 < idx.size(); ++k)
            ends[idx[k]] = clocks[idx[k + 1]].probeStart;
    }
    double busy = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double wall = ends[i] - clocks[i].start;
        busy += wall;
        JsonWriter w = opRecord("plain", wl.jobs[i], op++, wall,
                                clocks[i].probe, results[i]);
        emit(w);
    }
    JsonWriter w;
    w.beginObject();
    w.field("rec", "sweep");
    w.field("wall_s", t1 - t0);
    w.field("busy_s", busy);
    w.field("workers", runner.threads());
    w.field("jobs", static_cast<std::uint64_t>(jobs.size()));
    emit(w);
    return results;
}

/** Traced pass over the sweep: the same jobs, step by step, on a pool
 *  of the same size (each worker keeps its own span log). */
void
tracedSweep(const Workload &wl, const std::vector<RunResult> &plain,
            int firstOp, std::vector<std::unique_ptr<SpanLog>> &logs)
{
    struct Done
    {
        RunResult r;
        Counts c;
        double wall = 0.0;
        double probe = 0.0;
    };
    std::vector<Done> done(wl.jobs.size());
    std::atomic<std::size_t> cursor{0};
    std::vector<SpanLog *> mine;
    for (int t = 0; t < sweepWorkers; ++t) {
        logs.push_back(
            std::make_unique<SpanLog>(static_cast<int>(logs.size())));
        mine.push_back(logs.back().get());
    }
    auto worker = [&](SpanLog *log) {
        for (std::size_t i = cursor.fetch_add(1); i < wl.jobs.size();
             i = cursor.fetch_add(1)) {
            Done &d = done[i];
            d.probe = probeSeconds();
            const double t0 = now();
            d.r = tracedRun(wl.jobs[i], firstOp + static_cast<int>(i),
                            *log, d.c);
            d.wall = now() - t0;
        }
    };
    std::vector<std::thread> pool;
    for (SpanLog *log : mine)
        pool.emplace_back(worker, log);
    for (std::thread &t : pool)
        t.join();
    for (std::size_t i = 0; i < done.size(); ++i) {
        const Done &d = done[i];
        JsonWriter w = opRecord("traced", wl.jobs[i],
                                firstOp + static_cast<int>(i), d.wall,
                                d.probe, d.r);
        w.field("replica_of", digestOf(plain[i]));
        addCounts(w, d.c);
        emit(w);
    }
}

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string out;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc < 2)
        return false;
    a.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--out")
            a.out = v;
        else
            return false;
    }
    return (a.mode == "plain" || a.mode == "traced") && !a.out.empty() &&
           a.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Workload wl;
    if (!parseArgs(argc, argv, args) ||
        !makeWorkload(args.workload, args.seed, wl)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver plain|traced "
                     "--workload cais-nvl72|t3-nvl72|sweep-small|"
                     "cais-nvl72-observed --seed N --seconds S "
                     "--out DIR\n");
        return 2;
    }
    setLogLevel(LogLevel::quiet);
    {
        JsonWriter w;
        w.beginObject();
        w.field("rec", "plan");
        w.key("jobs").beginArray();
        for (const Job &j : wl.jobs)
            w.value(j.name);
        w.endArray();
        emit(w);
    }

    for (int i = 0; i < setupReps; ++i) {
        const double probe = probeSeconds();
        JsonWriter w;
        w.beginObject();
        w.field("rec", "setup");
        w.field("s", timedSetup(args.workload, args.seed));
        w.field("probe_s", probe);
        emit(w);
    }

    const bool traced = args.mode == "traced";
    std::vector<std::unique_ptr<SpanLog>> logs;
    const double start = now();
    int op = 0;
    if (wl.sweep) {
        // Whole passes only, so every run measures the same job mix;
        // another pass starts only if it should end within half a pass
        // of the deadline.
        double last = 0.0;
        do {
            const double t0 = now();
            std::vector<RunResult> plain = sweepPass(wl, op);
            if (traced) {
                tracedSweep(wl, plain, op, logs);
                op += static_cast<int>(wl.jobs.size());
            }
            last = now() - t0;
        } while (now() - start + last / 2 <= args.seconds);
    } else {
        const Job &job = wl.jobs.front();
        const Job obs = observedJob(job, args.out);
        logs.push_back(std::make_unique<SpanLog>(0));
        // The observed workload checks every observed op against a
        // plain run of the same simulation.
        if (wl.observed && !traced)
            plainOp("reference", job, op++);
        while (now() - start < args.seconds) {
            if (!wl.observed || traced) {
                RunResult r = plainOp("plain", job, op++);
                if (traced) {
                    const double probe = probeSeconds();
                    const double t0 = now();
                    Counts c;
                    RunResult t = tracedRun(job, op, *logs[0], c);
                    JsonWriter w = opRecord("traced", job, op++,
                                            now() - t0, probe, t);
                    w.field("replica_of", digestOf(r));
                    addCounts(w, c);
                    emit(w);
                }
            }
            if (wl.observed)
                plainOp("observed", obs, op++);
        }
    }

    if (traced) {
        JsonWriter w;
        w.beginObject();
        w.field("schema", "perfbench-spans-v1");
        w.key("spans").beginArray();
        for (const auto &log : logs)
            log->write(w);
        w.endArray();
        w.endObject();
        const std::string path = args.out + "/spans.json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f || std::fputs(w.str().c_str(), f) < 0 ||
            std::fclose(f) != 0)
            fatal("cannot write %s", path.c_str());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    JsonWriter w;
    w.beginObject();
    w.field("rec", "end");
    w.field("loop_s", now() - start);
    w.field("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
    w.field("compiler", PERFBENCH_COMPILER);
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    emit(w);
    return 0;
}
