#!/usr/bin/env python3
"""The repository benchmark: builds the benchmark binary and runs it.

One workload, as BENCHMARK.json's command runs it (last stdout line is
the result object):

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Other modes (see perfbench/README.md):

    python3 perfbench/run.py all --seed 1 --seconds 20 [--trace 0|1]
    python3 perfbench/run.py suite --seeds 1-10 [--heldout-seeds 1001-1002]
        [--workloads compile,batch] [--trace 0|1] --out-dir DIR
    python3 perfbench/run.py compare BASE_DIR CHANGE_DIR [--role tuning]
    python3 perfbench/run.py selftest

Run from the repository root. Build output goes to $CARGO_TARGET_DIR (or
.bench_build), scratch files and traces to .bench_out.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["compile", "batch", "serve", "tenants"]

# Each contract metric (BENCHMARK.json end_to_end) is one named metric of
# the workload; README.md explains the choice per workload.
SLOTS = {
    "compile": {
        "primary_ms.p50": "compile_cold_ms.geomean_at_ref",
        "primary_ms.tail": "compile_cold_ms.top10_mean_at_ref",
        "secondary_ms.p50": "compile_warm_ms.geomean_at_ref",
        "secondary_ms.tail": "compile_warm_ms.top10_mean_at_ref",
        "throughput_per_s": "compile_cold_per_s_at_ref",
    },
    "batch": {
        "primary_ms.p50": "batch_joint_call_ms.p50_at_ref",
        "primary_ms.tail": "batch_joint_call_ms.mean_at_ref",
        "secondary_ms.p50": "batch_marginal_call_ms.p50_at_ref",
        "secondary_ms.tail": "batch_marginal_call_ms.mean_at_ref",
        "throughput_per_s": "infer_samples_per_s_at_ref",
    },
    "serve": {
        "primary_ms.p50": "latency_ms.p50.mid",
        "primary_ms.tail": "latency_ms.p95.high",
        "secondary_ms.p50": "interactive_latency_ms.p50.high",
        "secondary_ms.tail": "interactive_latency_ms.p95.high",
        "throughput_per_s": "capacity_samples_per_s_at_ref",
    },
    "tenants": {
        "primary_ms.p50": "latency_ms.p50.mid",
        "primary_ms.tail": "latency_ms.p95.high",
        "secondary_ms.p50": "latency_ms.p50.low",
        "secondary_ms.tail": "latency_ms.p95.low",
        "throughput_per_s": "capacity_samples_per_s_at_ref",
    },
}
for _slots in SLOTS.values():
    _slots["setup_s"] = "setup_s_at_ref"

# A metric rescaled to the machine's reference speed ("..._at_ref") is
# printed beside its raw figure, named without the suffix.
AT_REF = "_at_ref"

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no SPNC sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 4),
                  "--target", "spnc_perfbench", "perfbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed")
            sys.exit(2)
    return os.path.join(out, "spnc_perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def parse_report(text):
    result = {"named": {}, "layers": {}, "provenance": {}, "attempted": 0,
              "failed": 0, "correct": False}
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if not parts:
            continue
        kind = parts[0]
        if kind in ("E2E", "LAYER") and len(parts) == 3:
            value, unit = parts[2].rsplit(" ", 1)
            target = result["named"] if kind == "E2E" else result["layers"]
            target[parts[1]] = {"value": float(value), "unit": unit}
        elif kind == "PROV" and len(parts) == 3:
            try:
                result["provenance"][parts[1]] = json.loads(parts[2])
            except ValueError:
                result["provenance"][parts[1]] = parts[2]
        elif kind == "COUNT":
            result["attempted"], result["failed"] = map(int, line.split()[1:3])
        elif kind == "CORRECT":
            result["correct"] = line.split()[1] == "1"
    return result


def run_workload(binary, workload, seed, seconds, trace, role="tuning"):
    """Runs one workload; returns the full result dict, or None when the
    benchmark binary crashed (no report)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--models-dir", os.path.join(ROOT, "examples", "models"),
           "--work-dir", os.path.join(out_dir, f"work-{workload}")]
    if trace:
        cmd += ["--trace-file",
                os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode not in (0, 3):
        log(f"{workload}: spnc_perfbench exited with {proc.returncode}")
        return None
    result = parse_report(proc.stdout)
    result["correct"] = result["correct"] and proc.returncode == 0
    result["workload"] = workload
    result["seed"] = seed
    result["trace"] = bool(trace)
    prov = result["provenance"]
    prov["commit"] = git_commit()
    prov["source_digest"] = source_digest()
    prov["seed_role"] = role
    prov["python"] = platform.python_version()
    prov["wall_s"] = round(time.time() - started, 3)
    return result


def contract_metrics(result, bench):
    """The metrics object of the result line: every end_to_end metric
    untraced, every per_layer metric traced."""
    metrics = {}
    if not result["trace"]:
        slots = SLOTS[result["workload"]]
        for m in bench["end_to_end"]:
            named = result["named"][slots[m["name"]]]
            metrics[m["name"]] = {"value": named["value"], "unit": m["unit"]}
        return metrics
    layers = dict(result["layers"])
    attempted = max(result["attempted"], 1)
    layers["failed_frac"] = {"value": result["failed"] / attempted,
                             "unit": "fraction"}
    for m in bench["per_layer"]:
        value = layers.get(m["name"], {"value": 0.0})["value"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    unknown = sorted(set(layers) - {m["name"] for m in bench["per_layer"]})
    if unknown:
        log("layer metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    return metrics


def print_named(result):
    w = result["workload"]
    for name, m in sorted(result["named"].items()):
        print(f"{w:8s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    if result["trace"]:
        for name, m in sorted(result["layers"].items()):
            print(f"{w:8s} {name:44s} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"{w:8s} {'failed_frac':36s} {frac:>16.6g} fraction "
          f"({result['failed']} of {result['attempted']})")


def result_line(result, bench):
    return json.dumps({"correct": result["correct"],
                       "attempted": max(result["attempted"], 1),
                       "failed": result["failed"],
                       "metrics": contract_metrics(result, bench)})


def save(result, bench, path):
    result = dict(result)
    result["metrics"] = contract_metrics(result, bench)
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += list(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def spread(values):
    """Quartiles and the quartile distance as a share of the median."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else math.inf


def load_results(path, role):
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, f) for f in sorted(os.listdir(path))
        if f.endswith(".json")]
    results = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if not r.get("trace") and r["provenance"].get("seed_role") == role:
            results.append(r)
    return results


def verdict(bv, cv, metric):
    """Verdict of change values cv against base values bv for one metric
    of BENCHMARK.json; also returns the quartiles and ratio shown."""
    bq1, bmed, bq3, bspread = spread(bv)
    cq1, cmed, cq3, cspread = spread(cv)
    ratio = cmed / bmed if bmed else math.inf
    lower = metric["better"] == "lower"
    worse = (ratio - 1) if lower else (1 - ratio)
    all_better = (max(cv) < min(bv)) if lower else (min(cv) > max(bv))
    if max(bspread, cspread) > metric["bound"] and not all_better:
        v = "unresolved (spread > bound)"
    elif worse > metric["bound"]:
        v = "REGRESSED"
    elif -worse > metric["bound"] or all_better:
        v = "improved"
    else:
        v = "within bound"
    return v, (bmed, bq1, bq3), (cmed, cq1, cq3), ratio


def compare(args, bench):
    base = load_results(args.base, args.role)
    change = load_results(args.change, args.role)
    if not base or not change:
        log("compare needs untraced results on both sides")
        return 2
    print(f"{'workload':8s} {'metric':18s} {'named':36s} "
          f"{'base median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
          f"{'change/base':>11s} {'bound':>6s}  verdict")
    regressed = False
    for w in WORKLOADS:
        b_runs = [r for r in base if r["workload"] == w]
        c_runs = [r for r in change if r["workload"] == w]
        if not b_runs or not c_runs:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            named = SLOTS[w][name]
            v, (bmed, bq1, bq3), (cmed, cq1, cq3), ratio = verdict(
                [r["metrics"][name]["value"] for r in b_runs],
                [r["metrics"][name]["value"] for r in c_runs], m)
            # A rescaled figure must tell the same story as its raw one:
            # if the change moved the reference work instead of (or as
            # well as) the program, the two disagree. A raw figure too
            # noisy to judge does not overrule the rescaled one.
            if named.endswith(AT_REF):
                raw = named[:-len(AT_REF)]
                raw_v = verdict([r["named"][raw]["value"] for r in b_runs],
                                [r["named"][raw]["value"] for r in c_runs],
                                m)[0]
                if not raw_v.startswith("unresolved") and raw_v != v:
                    v = f"unresolved (raw says {raw_v}, rescaled {v})"
            regressed |= v == "REGRESSED"
            print(f"{w:8s} {name:18s} {named:36s} "
                  f"{bmed:>12.5g} [{bq1:.4g}, {bq3:.4g}] "
                  f"{cmed:>12.5g} [{cq1:.4g}, {cq3:.4g}] "
                  f"{ratio:>11.4f} {m['bound']:>6.2f}  {v}"
                  f" (base n={len(b_runs)}, change n={len(c_runs)})")
    return 1 if regressed else 0


def suite(args, bench, binary):
    os.makedirs(args.out_dir, exist_ok=True)
    workloads = WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    runs = [(s, "tuning") for s in parse_seeds(args.seeds)]
    runs += [(s, "heldout") for s in parse_seeds(args.heldout_seeds or "")]
    ok = True
    for w in workloads:
        tuning = []
        for seed, role in runs:
            r = run_workload(binary, w, seed, args.seconds, args.trace, role)
            if r is None:
                ok = False
                continue
            ok &= r["correct"]
            name = f"{w}-{role}-seed{seed}-trace{args.trace}.json"
            save(r, bench, os.path.join(args.out_dir, name))
            log(f"{w} seed {seed}: {result_line(r, bench)}")
            if role == "tuning" and not args.trace:
                tuning.append(contract_metrics(r, bench))
        # Run-to-run spread over the tuning seeds, flagged when above a
        # third of the metric's bound.
        for m in bench["end_to_end"] if tuning else []:
            q1, med, q3, sp = spread([t[m["name"]]["value"] for t in tuning])
            flag = "  OVER a third of the bound" if sp > m["bound"] / 3 else ""
            print(f"{w:8s} {m['name']:18s} median {med:12.5g} "
                  f"IQR/median {sp:7.4f} bound {m['bound']:.2f}{flag}",
                  flush=True)
    return 0 if ok else 1


def main():
    bench = load_benchmark()
    argv = sys.argv[1:]
    mode = argv[0] if argv and not argv[0].startswith("-") else "run"
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    if mode == "compare":
        p.add_argument("mode")
        p.add_argument("base")
        p.add_argument("change")
        p.add_argument("--role", default="tuning",
                       help="compare tuning-seed or heldout-seed runs")
        return compare(p.parse_args(argv), bench)
    if mode == "selftest":
        binary = build()
        work = os.path.join(ROOT, ".bench_out")
        os.makedirs(work, exist_ok=True)
        selftest = os.path.join(os.path.dirname(binary), "perfbench_selftest")
        return subprocess.run([selftest], cwd=work).returncode
    if mode not in ("run", "all", "suite"):
        p.error(f"unknown mode {mode}")
    if mode != "run":
        p.add_argument("mode")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="save the full result (provenance, every "
                   "named metric) as JSON for compare")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--heldout-seeds", default="")
    p.add_argument("--workloads", default="all")
    p.add_argument("--out-dir", default=os.path.join(ROOT, ".bench_out", "results"))
    args = p.parse_args(argv)
    if mode == "run" and not args.workload:
        p.error("--workload is required")

    binary = build()
    if mode == "suite":
        return suite(args, bench, binary)
    workloads = [args.workload] if mode == "run" else WORKLOADS
    ok = True
    last = None
    for w in workloads:
        r = run_workload(binary, w, args.seed, args.seconds, args.trace)
        if r is None:
            return 1
        print_named(r)
        if args.out:
            save(r, bench, args.out if mode == "run"
                 else f"{args.out}-{w}.json")
        ok &= r["correct"]
        last = r
        if not r["correct"]:
            log(f"{w}: WRONG OUTPUT (see MISMATCH lines above)")
    if mode == "run":
        print(result_line(last, bench), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
