#!/usr/bin/env python3
"""Simulator benchmark: build, run one workload, check it, report metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-expected

Run from the repository root. The first run configures and builds
perfbench/ (the cais library from src/ plus perfbench_driver) into
.bench_build/perfbench; later runs only re-check the build. The driver's
records are turned into the metrics BENCHMARK.json lists, printed one per
line with their unit and kind (host or simulated time), followed by one
JSON object on the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run. --record-expected rewrites perfbench/expected.json from
the default seed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD, "perfbench_driver")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ["cais-nvl72", "t3-nvl72", "sweep-small", "cais-nvl72-observed"]
DEFAULT_SEED = 1

# Environment variables that silently change what the simulator runs.
PINNED_ENV = ("CAIS_SHARDS", "CAIS_EVENTQ", "CAIS_JOBS")

# Median probe time on the 4-core 2.1 GHz box the benchmark was defined on.
# Host times are reported as measured seconds x REF_PROBE_S / probe seconds
# measured next to them: seconds at that box's median speed.
REF_PROBE_S = 0.015

# Exact simulated results checked against expected.json on the default seed.
EXACT = ("makespan", "events", "wire_bytes", "merge_reqs", "merge_hits",
         "evictions")

# Strategies fig11 compares CAIS against (CAIS-Base is an ablation).
CAIS = "CAIS"
NOT_BASELINES = ("CAIS", "CAIS-Base")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; False when that is impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(DRIVER)


def run_driver(mode, workload, seed, seconds, out):
    """Run the driver; returns (records, exited_cleanly)."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cmd = [DRIVER, mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out]
    records = []
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          cwd=ROOT) as proc:
        deadline = time.monotonic() + seconds + 120
        try:
            for line in proc.stdout:
                if line.startswith('{"rec"'):
                    records.append(json.loads(line))
                else:
                    sys.stderr.write(line)
                if time.monotonic() > deadline:
                    raise TimeoutError
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except (TimeoutError, subprocess.TimeoutExpired, ValueError):
            proc.kill()
            proc.wait()
            return records, False
    ok = proc.returncode == 0 and records and records[-1]["rec"] == "end"
    if not ok:
        log(f"perfbench: driver exited with {proc.returncode}")
    return records, bool(ok)


def ops(records, *kinds):
    return [r for r in records if r["rec"] == "op" and r["kind"] in kinds]


def scaled(rows, key, window=11):
    """Each row's `key` seconds at the reference box's median speed: times
    REF_PROBE_S over the median probe of the `window` rows around it
    (rows are in start order, so the window is local in time)."""
    half = window // 2
    probes = [r["probe_s"] for r in rows]
    return [r[key] * REF_PROBE_S
            / statistics.median(probes[max(0, i - half):i + half + 1])
            for i, r in enumerate(rows)]


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, n, 0
    return xs[n - 11], math.floor(100 * (n - 10) / n), n, 10


def check(records, workload, seed, clean):
    """Correctness of every op: (attempted, failed, problems)."""
    plan = next(r for r in records if r["rec"] == "plan")["jobs"]
    done = ops(records, "plain", "traced", "observed", "reference")
    problems = []
    failed = 0
    expected = {}
    if seed == DEFAULT_SEED and os.path.isfile(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)["workloads"].get(workload, {})
    digests = {}
    for r in done:
        bad = []
        want = expected.get(r["job"])
        if want is not None:
            bad += [f"{k} {r[k]} != {want[k]}" for k in EXACT if r[k] != want[k]]
        elif seed == DEFAULT_SEED:
            bad.append("no expected values recorded")
        first = digests.setdefault(r["job"], r["digest"])
        if r["digest"] != first:
            bad.append(f"result digest {r['digest']} != first op's {first}")
        if r["kind"] == "traced" and r["digest"] != r["replica_of"]:
            bad.append("step-by-step replica differs from runGraph")
        if bad:
            failed += 1
            problems.append(f"op {r['op']} ({r['kind']} {r['job']}): "
                            + "; ".join(bad))
    art = {r["artifact_bytes"] for r in done if "artifact_bytes" in r}
    if len(art) > 1:
        failed += 1
        problems.append(f"observed ops wrote differing artifact sizes {art}")
    attempted = len(done)
    if not clean:
        # The op in flight when the driver died; on the sweep, every job
        # of the pass in flight (its records come after the pass).
        unfinished = len(plan) if workload == "sweep-small" else 1
        attempted += unfinished
        failed += unfinished
        problems.append(f"driver did not finish: {unfinished} op(s) unfinished")
    return attempted, failed, problems


def end_to_end(records):
    plan = next(r for r in records if r["rec"] == "plan")["jobs"]
    end = records[-1]
    timed = ops(records, "plain", "observed")
    walls = scaled(timed, "wall_s")
    workers = next((r["workers"] for r in records if r["rec"] == "sweep"), 1)
    t, pct, n, beyond = tail(walls)
    setup = scaled([r for r in records if r["rec"] == "setup"], "s",
                   window=99)
    first_pass = timed[:len(plan)]
    metrics = {
        "sim_wall_s.p50": (statistics.median(walls), "s"),
        "sim_wall_s.tail": (t, "s"),
        "sims_per_s": (workers * len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (end["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "sim.makespan_cycles": (sum(r["makespan"] for r in first_pass),
                                "cycles"),
    }
    notes = {
        "sim_wall_s.p50": f"host, median of n={n}",
        "sim_wall_s.tail": f"host, p{pct} of n={n} ({beyond} beyond)",
        "sims_per_s": f"host, {workers} worker(s)",
        "peak_rss_mb": "host, driver process",
        "setup_s": f"host, median of {len(setup)} set-ups",
        "sim.makespan_cycles": "simulated, exact"
        + (f", sum over {len(plan)} runs" if len(plan) > 1 else ""),
    }
    raw = [r["wall_s"] for r in timed]
    notes["sim_wall_s.p50"] += f", raw median {statistics.median(raw):.4f} s"
    return metrics, notes


def cais_speedup(done):
    """fig11 headline: geomean over graph x preset cells of the best
    baseline makespan over CAIS's."""
    cells = {}
    for r in done:
        strategy, cell = r["job"].split("/", 1)
        cells.setdefault(cell, {})[strategy] = r["makespan"]
    ratios = []
    for by in cells.values():
        base = [m for s, m in by.items() if s not in NOT_BASELINES]
        if CAIS in by and base:
            ratios.append(min(base) / by[CAIS])
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(x) for x in ratios) / len(ratios))


PHASES = {
    "runtime.construct_s": "runtime.construct",
    "runtime.lower_s": "runtime.lower",
    "analysis.verify_pre_s": "analysis.verify_pre",
    "runtime.run_s": "runtime.run",
    "analysis.bound_s": "analysis.bound",
    "common.metrics.snapshot_s": "common.metrics.snapshot",
    "common.metrics.harvest_s": "common.metrics.harvest",
    "analysis.verify_post_s": "analysis.verify_post",
}


def per_layer(records, spans):
    plan = next(r for r in records if r["rec"] == "plan")["jobs"]
    end = records[-1]
    traced = ops(records, "traced")
    plain = ops(records, "plain")
    observed = ops(records, "observed")
    phase = {}   # (op, span name) -> seconds
    op_span = {}
    for s in spans:
        d = s["end_s"] - s["start_s"]
        if s["parent"] < 0:
            op_span[s["op"]] = d
        else:
            phase[(s["op"], s["name"])] = d
    n = len(traced)
    m = {}
    for metric, name in PHASES.items():
        total = sum(scaled([dict(r, d=phase.get((r["op"], name), 0.0))
                            for r in traced], "d"))
        m[metric] = (total / n, "s")
    run_raw = sum(phase.get((r["op"], "runtime.run"), 0.0) for r in traced)
    m["runtime.run_share"] = (run_raw / sum(op_span[r["op"]] for r in traced),
                              "ratio")
    # Exact counts of one op, or of one pass on the sweep.
    per_op = lambda key: sum(r[key] for r in traced[:len(plan)])
    m["common.eventq.events"] = (per_op("events"), "count")
    m["common.eventq.events_per_s"] = (
        sum(r["events"] for r in traced) / (m["runtime.run_s"][0] * n), "1/s")
    m["common.metrics.paths"] = (per_op("paths"), "count")
    sweeps = [r for r in records if r["rec"] == "sweep"]
    if sweeps:
        eff = [s["busy_s"] / (s["workers"] * s["wall_s"]) for s in sweeps]
    else:
        busy = sum(r["wall_s"] for r in ops(records, "plain", "traced",
                                            "observed"))
        eff = [busy / end["loop_s"]]
    m["runtime.sweep.efficiency"] = (statistics.median(eff), "ratio")
    plain_w = scaled(plain, "wall_s")
    traced_w = scaled(traced, "wall_s")
    if observed:
        obs_w = scaled(observed, "wall_s")
        m["analysis.observe_overhead"] = (
            statistics.median(obs_w) / statistics.median(plain_w), "ratio")
        m["analysis.artifact_bytes"] = (observed[0]["artifact_bytes"], "bytes")
    else:
        m["analysis.observe_overhead"] = (1.0, "ratio")
        m["analysis.artifact_bytes"] = (0, "bytes")
    m["bench.trace_overhead_s"] = (
        statistics.mean(traced_w) - statistics.mean(plain_w), "s")
    reqs = per_op("merge_reqs")
    hits = per_op("merge_hits")
    m["switchcompute.merge.reqs"] = (reqs, "count")
    m["switchcompute.merge.hits"] = (hits, "count")
    m["switchcompute.merge.hit_ratio"] = (hits / reqs if reqs else 0.0, "ratio")
    m["switchcompute.merge.evictions"] = (per_op("evictions"), "count")
    m["switchcompute.nvls.ops"] = (per_op("nvls_ops"), "count")
    m["noc.packets"] = (per_op("packets"), "count")
    m["noc.wire_bytes"] = (per_op("wire_bytes"), "bytes")
    m["gpu.tbs_dispatched"] = (per_op("tbs_dispatched"), "count")
    m["gpu.hub.chunks"] = (per_op("hub_chunks"), "count")
    m["gpu.sync.requests"] = (per_op("sync_requests"), "count")
    m["sim.cais_speedup_geomean"] = (cais_speedup(traced[:len(plan)]),
                                     "ratio")
    notes = {k: f"mean per traced op over {n} op(s)" for k in PHASES}
    return m, notes


def provenance(records, workload, seed):
    end = records[-1] if records and records[-1]["rec"] == "end" else {}
    rev = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "describe", "--always", "--dirty"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    mhz = ""
    try:
        with open("/proc/cpuinfo") as f:
            mhz = next((l.split(":")[1].strip() for l in f
                        if l.startswith("cpu MHz")), "")
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed,
        "revision": rev or "unknown (not a git checkout)",
        "compiler": end.get("compiler", "?"),
        "build_type": end.get("build_type", "?"),
        "nproc": os.cpu_count(), "cpu_mhz": mhz,
        "ref_probe_s": REF_PROBE_S,
    }


def record_expected():
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS:
        out = os.path.join(OUT, f"record-{w}")
        os.makedirs(out, exist_ok=True)
        # A tiny run length runs every simulation of the workload once.
        records, clean = run_driver("plain", w, DEFAULT_SEED, 0.001, out)
        shutil.rmtree(out, ignore_errors=True)
        if not clean:
            log(f"perfbench: {w} failed while recording")
            return 1
        doc["workloads"][w] = {
            r["job"]: {k: r[k] for k in EXACT}
            for r in ops(records, "plain", "observed", "reference")}
    with open(EXPECTED, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    if not args.record_expected and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not build():
        return 1
    if args.record_expected:
        return record_expected()

    out = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(out, exist_ok=True)
    mode = "traced" if args.trace else "plain"
    records, clean = run_driver(mode, args.workload, args.seed, args.seconds,
                                out)
    if not any(r["rec"] == "plan" for r in records):
        log("perfbench: driver produced no plan")
        shutil.rmtree(out, ignore_errors=True)
        return 1
    attempted, failed, problems = check(records, args.workload, args.seed,
                                        clean)
    for p in problems[:20]:
        log("perfbench: FAILED " + p)

    metrics, notes = {}, {}
    if clean:
        if args.trace:
            with open(os.path.join(out, "spans.json")) as f:
                spans = json.load(f)["spans"]
            metrics, notes = per_layer(records, spans)
            os.replace(os.path.join(out, "spans.json"),
                       os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
        else:
            metrics, notes = end_to_end(records)
    shutil.rmtree(out, ignore_errors=True)

    print("provenance: " + json.dumps(provenance(records, args.workload,
                                                 args.seed)))
    print(f"ops: {attempted} attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:34s} {shown} {unit:7s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": clean and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
