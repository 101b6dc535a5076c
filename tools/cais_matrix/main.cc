/**
 * @file
 * cais_matrix: check the acceptance matrix (every strategy x
 * {L1-L4, layer_fwd, layer_bwd} x fabric) in one of two modes.
 *
 *   cais_matrix --verify [key=value...]  static model checker (V1-V5,
 *                                        DESIGN.md §6e); runs no event
 *   cais_matrix --bound [key=value...]   simulate every cell and check
 *                                        makespan >= bound (V8, §6h)
 *   cais_matrix --list-rules             print the rule table
 *
 * Both modes take strategy= workload= topology= json_out= --json and
 * the bench machine knobs; --verify also takes suppress=V3,V5.
 * topology=all repeats the sweep on the flat shape and every shipped
 * preset, tagging each workload as "L1@nvl72" etc. --bound runs the
 * cells on the SweepRunner pool with the in-run V8/V9 gate
 * suppressed, so a violating run is a flagged line in the summary
 * instead of an abort. Exit code: 0 clean, 1 diagnostics or
 * violations found, 2 usage.
 */

#include <strings.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bound_model.hh"
#include "analysis/verify.hh"
#include "common/config.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "runtime/sweep.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

struct Workload
{
    std::string name;
    std::function<OpGraph(const LlmConfig &)> build;
};

std::vector<Workload>
allWorkloads()
{
    auto sub = [](SubLayerId L) {
        return [L](const LlmConfig &m) { return buildSubLayer(m, L); };
    };
    return {
        {"L1", sub(SubLayerId::L1)},
        {"L2", sub(SubLayerId::L2)},
        {"L3", sub(SubLayerId::L3)},
        {"L4", sub(SubLayerId::L4)},
        {"layer_fwd",
         [](const LlmConfig &m) {
             return buildTransformerLayer(m, Pass::forward);
         }},
        {"layer_bwd",
         [](const LlmConfig &m) {
             return buildTransformerLayer(m, Pass::backward);
         }},
    };
}

enum class Mode
{
    none,
    verify,
    bound,
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cais_matrix --verify|--bound [--json] [key=value...]\n"
        "       cais_matrix --list-rules\n"
        "  --verify        static model checks (V1-V5), no simulation\n"
        "  --bound         simulate and check makespan >= bound (V8)\n"
        "  strategy=NAME   one strategy (default: all)\n"
        "  workload=NAME   L1|L2|L3|L4|layer_fwd|layer_bwd "
        "(default: all)\n"
        "  suppress=V1,V3  skip rules (--verify only)\n"
        "  json_out=PATH   write the JSON document to PATH\n"
        "  topology=NAME   fabric preset (dgx-h100, nvl72, "
        "rail-optimized-2node/-4node),\n"
        "                  or 'all' to sweep flat + every preset\n"
        "  gpus= switches= chunk= sms= seed= dim= tok=   "
        "machine knobs (bench defaults;\n"
        "                  gpus= and switches= not with topology=all)\n");
    return 2;
}

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "cais_matrix: %s\n", msg.c_str());
    return usage();
}

int
listRules()
{
    for (const verify::RuleInfo &r : verify::ruleTable())
        std::printf("%s  %s\n    fix: %s\n", r.id, r.summary,
                    r.hint);
    return 0;
}

/** Every key and how its value parses: integer, real or text. */
const std::map<std::string, char> keyTypes = {
    {"strategy", 's'}, {"workload", 's'}, {"topology", 's'},
    {"json_out", 's'}, {"suppress", 's'}, {"gpus", 'i'},
    {"switches", 'i'}, {"chunk", 'i'},    {"sms", 'i'},
    {"seed", 'i'},     {"dim", 'r'},      {"tok", 'r'},
};

/**
 * Reject what Params would misread: a key this mode does not take,
 * a numeric key whose value does not parse in full (the same test
 * Params::getInt/getDouble apply), and fabric sizes with
 * topology=all, which keeps each preset's own shape. Returns the
 * message, or "" when the keys are usable.
 */
std::string
keyError(const Params &params, Mode mode)
{
    for (const std::string &k : params.keys()) {
        auto it = keyTypes.find(k);
        if (it == keyTypes.end() ||
            (k == "suppress" && mode != Mode::verify))
            return "unknown key '" + k + "'";
        const std::string v = params.getString(k, "");
        char *end = nullptr;
        if (it->second == 'i')
            (void)std::strtoll(v.c_str(), &end, 0);
        else if (it->second == 'r')
            (void)std::strtod(v.c_str(), &end);
        if (end && (end == v.c_str() || *end != '\0'))
            return "'" + k + "=" + v + "' is not a number";
    }
    if (params.getString("topology", "") == "all")
        for (const char *k : {"gpus", "switches"})
            if (params.has(k))
                return std::string(k) +
                       "= cannot be combined with topology=all";
    return "";
}

/** One cell of the matrix: a strategy on a workload on a fabric. */
struct Cell
{
    const StrategySpec *spec;
    const Workload *workload;
    std::string topology; ///< preset name; "" is the flat shape
    std::string tag;      ///< workload, "@topology" with topology=all
    RunConfig cfg;
};

double
boundRatio(const RunResult &r)
{
    return r.boundComposite ? static_cast<double>(r.makespan) /
                                  static_cast<double>(r.boundComposite)
                            : 0.0;
}

void
writeBoundRun(JsonWriter &w, const Cell &c, const RunResult &r)
{
    w.beginObject();
    w.field("strategy", c.spec->name);
    w.field("workload", c.workload->name);
    w.field("topology", c.topology);
    w.field("makespan", static_cast<std::uint64_t>(r.makespan));
    w.key("bound").beginObject()
        .field("composite", static_cast<std::uint64_t>(r.boundComposite))
        .field("smCompute", static_cast<std::uint64_t>(r.boundCompute))
        .field("hbm", static_cast<std::uint64_t>(r.boundHbm))
        .field("linkSerialization",
               static_cast<std::uint64_t>(r.boundLink))
        .field("mergeService", static_cast<std::uint64_t>(r.boundMerge))
        .field("criticalPath",
               static_cast<std::uint64_t>(r.boundCritPath))
        .field("binding", r.boundBinding)
        .endObject();
    w.field("ratio", boundRatio(r));
    w.field("v8Violation", r.makespan < r.boundComposite);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    Mode mode = Mode::none;
    bool want_json = false;
    Params params;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--verify" || arg == "--bound") {
            if (mode != Mode::none)
                return usageError("give exactly one of --verify and "
                                  "--bound");
            mode = arg == "--verify" ? Mode::verify : Mode::bound;
        } else if (arg == "--json") {
            want_json = true;
        } else if (arg == "--list-rules") {
            return listRules();
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (!params.parseToken(arg)) {
            return usageError("bad argument '" + arg + "'");
        }
    }
    if (mode == Mode::none)
        return usageError("give exactly one of --verify and --bound");
    if (std::string err = keyError(params, mode); !err.empty())
        return usageError(err);

    // topology=all sweeps the flat default shape plus every shipped
    // preset; otherwise a single (possibly empty = flat) topology.
    std::vector<std::string> topologies;
    const std::string topo_arg = params.getString("topology", "");
    const bool sweep_all = topo_arg == "all";
    if (sweep_all) {
        topologies.push_back("");
        for (const std::string &n : FabricParams::presetNames())
            topologies.push_back(n);
    } else {
        topologies.push_back(topo_arg);
    }

    auto makeCfg = [&](const std::string &topo) {
        RunConfig cfg;
        cfg.topology = topo;
        // With a preset, default the GPU count to the preset's own
        // (nvl72 -> 72); gpus= still overrides for withGpus scaling.
        if (const FabricParams *p = FabricParams::findPreset(topo))
            cfg.numGpus = p->numGpus;
        cfg.numGpus =
            static_cast<int>(params.getInt("gpus", cfg.numGpus));
        cfg.numSwitches = static_cast<int>(
            params.getInt("switches", cfg.numSwitches));
        cfg.chunkBytes = static_cast<std::uint32_t>(
            params.getInt("chunk", cfg.chunkBytes));
        cfg.gpu.numSms =
            static_cast<int>(params.getInt("sms", cfg.gpu.numSms));
        cfg.seed = static_cast<std::uint64_t>(params.getInt(
            "seed", static_cast<std::int64_t>(cfg.seed)));
        // --bound IS the V8 check: suppress the in-run gate so a
        // violating run shows up as a flagged line in the summary
        // instead of aborting the matrix mid-sweep.
        if (mode == Mode::bound)
            cfg.verifySuppress = {"V8", "V9"};
        return cfg;
    };
    for (const std::string &topo : topologies) {
        std::string cfg_err = makeCfg(topo).validationError();
        if (!cfg_err.empty())
            return usageError("invalid config: " + cfg_err);
    }

    // Small scale factors keep graph construction instant and the
    // 330-run bound matrix fast while preserving every structural
    // property; the bound property is scale-invariant.
    const LlmConfig model = megaGpt4B().scaled(
        params.getDouble("dim", 0.25), params.getDouble("tok", 0.125));

    std::vector<StrategySpec> strategies;
    std::string only_strategy = params.getString("strategy", "");
    for (const StrategySpec &s : allStrategies())
        if (only_strategy.empty() ||
            strcasecmp(s.name.c_str(), only_strategy.c_str()) == 0)
            strategies.push_back(s);
    if (strategies.empty()) {
        std::string names;
        for (const StrategySpec &s : allStrategies())
            names += (names.empty() ? "" : " ") + s.name;
        return usageError("unknown strategy '" + only_strategy +
                          "' (one of: " + names + ")");
    }

    std::vector<Workload> workloads;
    std::string only_workload = params.getString("workload", "");
    for (Workload &w : allWorkloads())
        if (only_workload.empty() || w.name == only_workload)
            workloads.push_back(std::move(w));
    if (workloads.empty())
        return usageError("unknown workload '" + only_workload + "'");

    std::vector<Cell> cells;
    for (const std::string &topo : topologies) {
        RunConfig cfg = makeCfg(topo);
        for (const StrategySpec &spec : strategies)
            for (const Workload &w : workloads)
                cells.push_back({&spec, &w, topo,
                                 sweep_all && !topo.empty()
                                     ? w.name + "@" + topo
                                     : w.name,
                                 cfg});
    }

    // Run the matrix into the mode's document and text report.
    JsonWriter w;
    w.beginObject();
    std::string text;
    std::size_t total = 0;
    if (mode == Mode::verify) {
        verify::Options opts;
        std::stringstream ss(params.getString("suppress", ""));
        std::string rule;
        while (std::getline(ss, rule, ','))
            if (!rule.empty())
                opts.suppress.insert(rule);

        std::vector<verify::VerifyResult> results;
        for (const Cell &c : cells) {
            opts.workload = c.tag;
            results.push_back(verify::verifyRun(
                *c.spec, c.workload->build(model), c.cfg, opts));
            total += results.back().diagnostics.size();
        }
        w.field("schema", verify::verifySchemaVersion);
        w.field("totalDiagnostics", static_cast<std::uint64_t>(total));
        w.key("runs").beginArray();
        for (const verify::VerifyResult &r : results) {
            r.writeJson(w);
            if (!r.ok())
                text += "-- " + r.strategy + " / " + r.workload +
                        " --\n" + r.text();
        }
        text += strfmt("cais_matrix: %zu run(s), %zu diagnostic(s)\n",
                       results.size(), total);
    } else {
        std::vector<SweepJob> jobs;
        for (const Cell &c : cells)
            jobs.push_back({*c.spec,
                            [build = c.workload->build, model]() {
                                return build(model);
                            },
                            c.cfg, c.tag});
        const std::vector<RunResult> results = runSweep(jobs);
        for (const RunResult &r : results)
            total += r.makespan < r.boundComposite;

        w.field("schema", boundSchemaVersion);
        w.field("totalViolations", static_cast<std::uint64_t>(total));
        w.key("runs").beginArray();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            const RunResult &r = results[i];
            writeBoundRun(w, c, r);
            const std::string where =
                c.topology.empty() ? c.workload->name
                                   : c.workload->name + "@" + c.topology;
            text += strfmt(
                "%-14s %-18s makespan %10llu  bound %10llu  "
                "ratio %5.2f  binding %-17s%s\n",
                c.spec->name.c_str(), where.c_str(),
                static_cast<unsigned long long>(r.makespan),
                static_cast<unsigned long long>(r.boundComposite),
                boundRatio(r), r.boundBinding.c_str(),
                r.makespan < r.boundComposite ? "  V8-VIOLATION" : "");
        }
        text += strfmt("cais_matrix: %zu run(s), %zu V8 violation(s)\n",
                       results.size(), total);
    }
    w.endArray();
    w.endObject();

    const std::string json_out = params.getString("json_out", "");
    if (!json_out.empty() && !writeDocumentFile(json_out, w.str(), true)) {
        std::fprintf(stderr, "cais_matrix: cannot write %s\n",
                     json_out.c_str());
        return 2;
    }
    if (want_json)
        std::printf("%s\n", w.str().c_str());
    else
        std::fputs(text.c_str(), stdout);
    return total == 0 ? 0 : 1;
}
