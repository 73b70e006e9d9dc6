#!/usr/bin/env python3
"""Benchmark entry point for the precision tuner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune, then runs workload W in child
processes, one process per repetition, so that peak RSS and GC counts belong
to that repetition alone.

--trace 0 repeats the untraced workload for about S seconds, and at least 3
times, and reports the median of each end-to-end metric over the repetitions
(set-up over at least 20 samples when it is cheap). A fixed allocation-bound
kernel, timed in fresh processes before the first repetition and after each,
reads the host's memory speed, and the two times, setup_s and wall_s, are
referred to one host speed: scaled by KERNEL_REF_S over the kernel's median
time. The exact counts must repeat bit for bit; a difference is a
determinism failure, never averaged.
--trace 1 makes one untraced and one traced repetition. The traced one records
spans and writes spans.jsonl, ledger.txt and metrics.json under
.perfbench/<workload>/trace/. It reports the per-layer metrics, with tracing
overhead taken against the untraced repetition.

Every repetition checks its outputs: at the default seed against
perfbench/expected.json, at any seed against the invariants (joint_parallel
commits joint_solo's records; the three identical service jobs agree byte for
byte). The last stdout line is one JSON object: correct, attempted, failed,
metrics. Any check failure makes the exit code 1.

    python3 perfbench/run.py --workload all   runs the four in turn; metric
                                              names become <workload>.<metric>
    python3 perfbench/run.py --record         rewrites perfbench/expected.json
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
EXPECTED = os.path.join(ROOT, "perfbench", "expected.json")
WORK = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 42
WORKLOADS = ["joint_solo", "joint_parallel", "table2_rank", "service_fleet"]
# Every child must end before the whole command's 180 s are up.
DEADLINE_S = 170
DEADLINE = float("inf")  # set once the build is done
# A run's medians are taken over at least this many repetitions, even when
# they overrun the requested seconds (table2_rank and service_fleet take
# about 11 s each).
MIN_REPS = 3
# When one set-up takes under a second, extra cold set-ups, each in a fresh
# process, bring a run to this many set-up samples.
SETUP_SAMPLES = 20
# setup_s and wall_s are times at the host speed where the kernel takes this
# long.
KERNEL_REF_S = 0.1
# Kernel processes before the first repetition and after each.
KERNEL_RUNS = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def build():
    """Builds the benchmark from source; False when the tree cannot build it."""
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    return r.returncode == 0 and os.path.exists(EXE)


def child(mode, workload, seed, tag):
    """One repetition in its own process; returns its JSON result."""
    out = os.path.join(WORK, workload, tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    args = [mode] if mode == "kernel" else [mode, workload, str(seed), out]
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=max(1.0, DEADLINE - time.monotonic()))
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            return {"failures": [f"{mode} {workload} exited {r.returncode}"], "attempted": 1}
        return json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        return {"failures": [f"{mode} {workload} timed out"], "attempted": 1}
    except json.JSONDecodeError:
        return {"failures": [f"{mode} {workload} printed no result"], "attempted": 1}
    finally:
        if mode != "trace":
            shutil.rmtree(out, ignore_errors=True)


def read_host(workload):
    """KERNEL_RUNS runs of the host-speed kernel, each in a fresh process."""
    return [child("kernel", workload, 0, "kernel") for _ in range(KERNEL_RUNS)]


def expected_for(workload):
    with open(EXPECTED) as f:
        exp = json.load(f)
    return exp["joint_solo" if workload == "joint_parallel" else workload]


def check_outputs(workload, seed, results):
    """Output checks over a run's repetitions; returns failure messages."""
    fails = []
    observed = [r["observed"] for r in results if "observed" in r]
    if not observed:
        return fails
    for o in observed[1:]:
        if o != observed[0]:
            fails.append("determinism: outputs differ across repetitions")
    if seed == DEFAULT_SEED:
        if observed[0] != expected_for(workload):
            fails.append(f"outputs differ from perfbench/expected.json for {workload}")
    elif workload == "joint_parallel":
        ref = child("run", "joint_solo", seed, "reference")
        fails += ref.get("failures", [])
        if ref.get("observed") != observed[0]:
            fails.append("joint_parallel records differ from joint_solo at this seed")
    return fails


def check_counts(results):
    """Exact-count guard: every repetition must report identical counts."""
    fails = []
    counts = [r["counts"] for r in results if "counts" in r]
    for name in (counts[0] if counts else {}):
        values = [c.get(name) for c in counts]
        if any(v != values[0] for v in values):
            fails.append(f"determinism: {name} differs across repetitions: {values}")
    return fails


def untraced(workload, seed, seconds):
    start = time.monotonic()
    reps, trials, setups = [], [], []
    kernels = read_host(workload)
    rep_s = 0.0

    def set_up_until(n):
        while setups and setups[0] < 1.0 and len(setups) < n:
            trials.append(child("setup", workload, seed, f"setup{len(trials)}"))
            if "setup_s" not in trials[-1]:
                break
            setups.append(trials[-1]["setup_s"])

    while True:
        t = time.monotonic()
        reps.append(child("run", workload, seed, f"rep{len(reps)}"))
        rep_s += time.monotonic() - t
        kernels += read_host(workload)
        if "metrics" in reps[-1]:
            setups.append(reps[-1]["metrics"]["setup_s"])
        # the extra set-ups are spread over the run, so that their median
        # covers the same stretch of time as the repetitions'
        planned = max(len(reps), round(seconds * len(reps) / rep_s))
        set_up_until(math.ceil(SETUP_SAMPLES * len(reps) / planned))
        elapsed = time.monotonic() - start
        # at least MIN_REPS, then stop where the run ends closest to the
        # requested length
        if len(reps) >= MIN_REPS and elapsed + rep_s / len(reps) / 2 > seconds:
            break
    set_up_until(SETUP_SAMPLES)
    good = [r for r in reps if "metrics" in r]
    kernel_s = [k["kernel_s"] for k in kernels if "kernel_s" in k]
    metrics, raw = {}, {}
    if good and kernel_s:
        for name in END_TO_END:
            metrics[name] = statistics.median(r["metrics"][name] for r in good)
        raw = {"setup_s": statistics.median(setups), "wall_s": metrics["wall_s"]}
        for name, value in raw.items():
            metrics[name] = value * KERNEL_REF_S / statistics.median(kernel_s)
    fails = [f for r in reps + trials + kernels for f in r.get("failures", [])]
    fails += check_counts(good) + check_outputs(workload, seed, good)
    attempted = sum(r.get("attempted", 1) for r in reps + trials + kernels)
    print(f"workload {workload} seed {seed}: {len(reps)} repetitions, "
          f"{len(trials)} extra set-ups and {len(kernels)} kernels in "
          f"{time.monotonic() - start:.1f} s (median of each metric)")
    for name, unit in END_TO_END.items():
        if name in metrics:
            print(f"  {name:<16} {metrics[name]:>14.6g} {unit}"
                  + (f" at the reference host speed ({raw[name]:.6g} s as timed)"
                     if name in raw else ""))
    print("  wall_s of each repetition: " + " ".join(f"{r['metrics']['wall_s']:.4g}" for r in good))
    print("  kernel_s of each kernel run: " + " ".join(f"{k:.4g}" for k in kernel_s))
    info = [r.get("info", {}) for r in good]
    for name in ("gc.minor_words", "gc.major_collections"):
        values = [i[name] for i in info if name in i]
        if values:
            print(f"  {name} of each repetition (not guarded): "
                  + " ".join(f"{v:.0f}" for v in values))
    if info and "request_p50_ms" in info[0]:
        n = sum(i["requests"] for i in info)
        for q in ("request_p50_ms", "request_p75_ms"):
            print(f"  {q:<16} {statistics.median(i[q] for i in info):>14.6g} ms"
                  f"  ({n} show/jobs requests over {len(info)} repetitions)")
    if good:
        print(f"  {'evals_to_minimal':<16} {good[0]['counts']['evals_to_minimal']:>14} count")
    return metrics, attempted, fails


def traced(workload, seed):
    kernels = read_host(workload)
    plain = child("run", workload, seed, "untraced")
    result = child("trace", workload, seed, "trace")
    fails = [f for r in kernels + [plain, result] for f in r.get("failures", [])]
    metrics = dict(result.get("metrics", {}))
    kernel_s = [k["kernel_s"] for k in kernels if "kernel_s" in k]
    if kernel_s:
        metrics["host.kernel_ms"] = 1e3 * statistics.median(kernel_s)
    if "metrics" in plain and metrics:
        metrics["ledger.overhead_s"] = metrics["ledger.workload_wall_s"] - plain["metrics"]["wall_s"]
        info = plain.get("info", {})
        for q in ("request_p50_ms", "request_p75_ms", "requests"):
            metrics["service." + q] = info.get(q, 0)
    fails += check_outputs(workload, seed, [r for r in (plain, result) if "metrics" in r])
    # the traced repetition must count exactly what the untraced one did
    for count, layer in (("fresh_evals", "trace.misses"), ("evals_to_minimal", "search.evals_to_minimal"),
                         ("speculate.live_evals", "speculate.live_evals"),
                         ("sched.slices", "sched.slices"), ("memo.hits", "memo.hits")):
        want = plain.get("counts", {}).get(count)
        if want is not None and metrics.get(layer) != want:
            fails.append(f"determinism: traced {layer} {metrics.get(layer)}, untraced {count} {want}")
    attempted = sum(r.get("attempted", 1) for r in kernels + [plain, result])
    out = os.path.join(WORK, workload, "trace")
    if os.path.isdir(out):
        with open(os.path.join(out, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=1)
    print(f"workload {workload} seed {seed}: traced run; spans.jsonl, ledger.txt and "
          f"metrics.json in {os.path.relpath(out, ROOT)}")
    for name in PER_LAYER:
        if name in metrics:
            print(f"  {name:<28} {metrics[name]:>16.6g} {PER_LAYER[name]}")
    return {k: metrics[k] for k in PER_LAYER if k in metrics}, attempted, fails


def record():
    global DEADLINE
    DEADLINE = time.monotonic() + DEADLINE_S
    exp = {"seed": DEFAULT_SEED}
    for w in ("joint_solo", "table2_rank", "service_fleet"):
        r = child("run", w, DEFAULT_SEED, "record")
        if r.get("failures"):
            sys.exit(f"cannot record {w}: {r['failures']}")
        exp[w] = r["observed"]
    with open(EXPECTED, "w") as f:
        json.dump(exp, f, indent=1, sort_keys=True)
        f.write("\n")


def measure(workload, seed, seconds, trace):
    """One workload, printed; returns its metrics, operations and failures."""
    global DEADLINE
    DEADLINE = time.monotonic() + DEADLINE_S
    if trace:
        metrics, attempted, fails = traced(workload, seed)
    else:
        metrics, attempted, fails = untraced(workload, seed, seconds)
    units = PER_LAYER if trace else END_TO_END
    fails += [f"metric {name} missing" for name in units if name not in metrics]
    for f in fails:
        print(f"  FAIL {f}")
    failed = min(len(fails), attempted)
    print(f"  {'fail_share':<16} {failed / attempted:>14.6g} ratio ({failed} of {attempted} "
          f"operations failed)")
    return metrics, attempted, fails


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if not build():
        sys.exit("perfbench: build failed")
    if args.record:
        return record()
    units = PER_LAYER if args.trace else END_TO_END
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, attempted, fails = {}, 0, []
    for w in workloads:
        m, a, f = measure(w, args.seed, args.seconds, args.trace)
        # with --workload all, each metric name carries its workload
        prefix = f"{w}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
        attempted += a
        fails += f
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": min(len(fails), attempted), "metrics": metrics}))
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
