#!/bin/sh
# CI entry point: build everything, run the full test suite, then a quick
# benchmark pass guarded against wall-clock regressions, plus one campaign
# with the unparse->reparse cross-check enabled.
set -eux

dune build @all
dune runtest

# Quick campaigns at workers=0 (same setting the committed baseline was
# recorded with); any campaign >2x slower than BENCH_ci.json fails the run.
# --scaling additionally runs the whole-model campaign at four
# shards x workers grid points, requires every point bit-identical in
# records and summary with a >=2x simulated-makespan improvement at 4x4,
# and lands the curve in the JSON trajectory. Campaigns the committed
# baseline predates are skipped with a warning, not a crash.
dune exec bench/main.exe -- --quick --workers 0 --scaling --json BENCH_ci_run.json \
  --check-against BENCH_ci.json

# One campaign with every evaluation cross-checked against the historical
# unparse->reparse pipeline; aborts on the first outcome mismatch.
dune exec bin/prose.exe -- tune mpas --max-variants 15 --workers 0 \
  --verify-roundtrip > /dev/null

# Fuzz smoke gate: 300 random well-typed programs through all six
# oracles (roundtrip, typecheck, rewrite, equiv, compiled, sensitivity)
# at a fixed seed; "compiled" is the two-way interpreter == compiled
# evaluator check, "sensitivity" checks every finite static error bound
# against the measured single-atom demotion error. Any violation is
# minimized, written to test/corpus/, and fails the run.
dune exec bin/prose.exe -- fuzz --cases 300 --seed 42

# The error-amplification mirror's soundness at a second seed: 1000 cases
# of the sensitivity oracle alone (every finite static bound must cover
# the measured single-atom demotion error, sample by sample).
dune exec bin/prose.exe -- fuzz --oracle sensitivity --cases 1000 --seed 7

# The compiled evaluator against the interpreter at the same second seed:
# 1000 cases of the compiled oracle alone.
dune exec bin/prose.exe -- fuzz --oracle compiled --cases 1000 --seed 7

# Exact-counter gate: one joint_solo repetition (a few seconds) checked
# against the committed BUDGET_joint_solo.json. Counts are
# host-independent, so this catches allocation and work regressions that
# timing noise hides: gc.minor_words may rise at most 2% above the
# budget; fresh evaluations, evaluations to the 1-minimal variant, live
# speculative evaluations and simulated hours must match exactly; and the
# OCaml version must be the one the budget was recorded with.
dune build ./perfbench/perfbench.exe
CDIR=$(mktemp -d)
_build/default/perfbench/perfbench.exe run joint_solo 42 "$CDIR" > "$CDIR/run.json"
python3 - "$CDIR/run.json" BUDGET_joint_solo.json "$(ocamlfind ocamlopt -version)" <<'PY'
import json, sys
run_path, budget_path, ocaml = sys.argv[1:4]
run = json.loads(open(run_path).read().strip().splitlines()[-1])
budget = json.load(open(budget_path))
errors = []
if ocaml != budget["ocaml"]:
    errors.append("OCaml %s, but the budget was recorded with OCaml %s" % (ocaml, budget["ocaml"]))
errors += ["run check failed: %s" % f for f in run.get("failures", [])]
counts = run["counts"]
for name, want in budget["counts"].items():
    got = counts.get(name)
    if name == "gc.minor_words":
        limit = want * (1.0 + budget["minor_words_slack"])
        if got is None or got > limit:
            errors.append("%s = %s, above the budget %d + %g%%"
                          % (name, got, want, 100 * budget["minor_words_slack"]))
    elif got != want:
        errors.append("%s = %s, budget %s" % (name, got, want))
if errors:
    sys.exit("exact-counter gate:\n  " + "\n  ".join(errors))
print("exact-counter gate: ok (gc.minor_words %d, budget %d)"
      % (counts["gc.minor_words"], budget["counts"]["gc.minor_words"]))
PY
rm -rf "$CDIR"

# Sharded-scheduler gate: one joint multi-hotspot campaign (the atm_srk3
# driver inside the search space) at shards=2/workers=2 with fault
# injection on, diffed record-for-record (CSV) and summary-for-summary
# against the sequential shards=1/workers=0 run. Faults are pure coins
# over (seed, kind, signature, attempt) and backend counters replay the
# committed stream, so both files must be byte-identical.
SDIR=$(mktemp -d)
_build/default/bin/prose.exe tune mpas_joint --whole-model --max-variants 40 \
  --shards 1 --workers 0 --journal "$SDIR/seq" \
  --fault-transient 0.02 --fault-seed 7 \
  --csv "$SDIR/seq.csv" --json "$SDIR/seq.json" > /dev/null
_build/default/bin/prose.exe tune mpas_joint --whole-model --max-variants 40 \
  --shards 2 --workers 2 --journal "$SDIR/sharded" \
  --fault-transient 0.02 --fault-seed 7 \
  --csv "$SDIR/sharded.csv" --json "$SDIR/sharded.json" > /dev/null
diff -u "$SDIR/seq.csv" "$SDIR/sharded.csv"
diff -u "$SDIR/seq.json" "$SDIR/sharded.json"
# Plain-workers gate: the same campaign at --workers 1 without --shards
# runs every speculative batch on a one-shard scheduler (one helper
# domain plus the submitting one). CSV and summary must match the
# sequential run byte for byte, and so must the journal past its header
# line, whose "workers" field records the requested parallelism.
_build/default/bin/prose.exe tune mpas_joint --whole-model --max-variants 40 \
  --workers 1 --journal "$SDIR/plain" \
  --fault-transient 0.02 --fault-seed 7 \
  --csv "$SDIR/plain.csv" --json "$SDIR/plain.json" > /dev/null
diff -u "$SDIR/seq.csv" "$SDIR/plain.csv"
diff -u "$SDIR/seq.json" "$SDIR/plain.json"
tail -n +2 "$SDIR/seq/journal.jsonl" > "$SDIR/seq_records.jsonl"
tail -n +2 "$SDIR/plain/journal.jsonl" > "$SDIR/plain_records.jsonl"
diff "$SDIR/seq_records.jsonl" "$SDIR/plain_records.jsonl"
rm -rf "$SDIR"

# Predictive-search gate, part 1: rank ordering must steer the mpas
# campaign to the bit-identical 1-minimal variant the unpredicted search
# finds (fewer evaluations are the point; a different answer is a bug).
PDIR=$(mktemp -d)
_build/default/bin/prose.exe tune mpas --workers 0 --predict off \
  --json "$PDIR/off.json" > /dev/null
_build/default/bin/prose.exe tune mpas --workers 0 --predict rank \
  --json "$PDIR/rank.json" > /dev/null
grep '"minimal"' "$PDIR/off.json" > "$PDIR/off_min.json"
grep '"minimal"' "$PDIR/rank.json" > "$PDIR/rank_min.json"
# the evaluation counts differ by design; the atom set must not
sed 's/"evaluations": [0-9]*/"evaluations": _/' "$PDIR/off_min.json" \
  > "$PDIR/off_cmp.json"
sed 's/"evaluations": [0-9]*/"evaluations": _/' "$PDIR/rank_min.json" \
  > "$PDIR/rank_cmp.json"
diff -u "$PDIR/off_cmp.json" "$PDIR/rank_cmp.json"

# Predictive-search gate, part 2: SIGKILL a journaled rank campaign
# mid-search, resume it, and require the summary to match an
# uninterrupted run modulo the "trace" line. Rank's evidence is fed from
# committed records in order, so the torn journal must replay the steered
# trajectory bit-identically; mom6 is also where the batch-reuse table
# hits (its inert duc_w), so the replayed "backend" line covers the
# table too. A second resume of the now-complete journal must preload
# every record and evaluate nothing.
_build/default/bin/prose.exe tune mom6 --workers 0 --predict rank \
  --json "$PDIR/rbase.json" > /dev/null
_build/default/bin/prose.exe tune mom6 --workers 0 --predict rank \
  --journal "$PDIR/rcamp" > /dev/null &
RKILL_PID=$!
# fire once the header and >=40 of the 150 records are durable
while [ "$(wc -l < "$PDIR/rcamp/journal.jsonl" 2> /dev/null || echo 0)" -lt 41 ]; do
  sleep 0.02
done
kill -9 "$RKILL_PID" 2> /dev/null || true
wait "$RKILL_PID" 2> /dev/null || true
_build/default/bin/prose.exe tune mom6 --workers 0 --predict rank \
  --journal "$PDIR/rcamp" --resume --json "$PDIR/rresumed.json" > /dev/null
grep -v -e '"trace"' "$PDIR/rbase.json" > "$PDIR/rbase_cmp.json"
grep -v -e '"trace"' "$PDIR/rresumed.json" > "$PDIR/rresumed_cmp.json"
diff -u "$PDIR/rbase_cmp.json" "$PDIR/rresumed_cmp.json"
_build/default/bin/prose.exe tune mom6 --workers 0 --predict rank \
  --journal "$PDIR/rcamp" --resume --json "$PDIR/rreplay.json" > /dev/null
grep '"misses": 0,' "$PDIR/rreplay.json" > /dev/null
grep '"preloaded": 150' "$PDIR/rreplay.json" > /dev/null
rm -rf "$PDIR"

# Crash-safety smoke gate: SIGKILL a journaled campaign mid-search, resume
# it, and require the summary to be bit-identical to an uninterrupted run.
# Only the "trace" line (cache hits / replay counts, functions of how many
# fresh evaluations ran) may differ; everything else -- records, minimal
# variant, speedups, cluster hours, and since the counters replay the
# committed record stream also the "backend" line -- must match exactly.
# Runs the real binary (not via dune exec) so the SIGKILL hits the
# campaign process itself, tearing the journal mid-line.
JDIR=$(mktemp -d)
_build/default/bin/prose.exe tune funarc --brute-force --workers 0 \
  --json "$JDIR/base.json" > /dev/null
_build/default/bin/prose.exe tune funarc --brute-force --workers 0 \
  --journal "$JDIR/campaign" > /dev/null &
KILL_PID=$!
# fire once >=40 of the 256 records are durable: the tear is mid-search,
# not a post-completion formality (poll, because wall time is machine-fast)
while [ "$(wc -l < "$JDIR/campaign/journal.jsonl" 2> /dev/null || echo 0)" -lt 40 ]; do
  sleep 0.02
done
kill -9 "$KILL_PID" 2> /dev/null || true
wait "$KILL_PID" 2> /dev/null || true
_build/default/bin/prose.exe tune funarc --brute-force --workers 0 \
  --journal "$JDIR/campaign" --resume \
  --json "$JDIR/resumed.json" > /dev/null
grep -v -e '"trace"' "$JDIR/base.json" > "$JDIR/base_cmp.json"
grep -v -e '"trace"' "$JDIR/resumed.json" > "$JDIR/resumed_cmp.json"
diff -u "$JDIR/base_cmp.json" "$JDIR/resumed_cmp.json"
rm -rf "$JDIR"

# Service gate: serve two concurrent campaigns (one fault-injected) over a
# shared pool, SIGTERM the server mid-run, restart it, watch both jobs to
# completion, and byte-diff each job's journal and summary against the
# same campaign run solo with `prose tune`. Slices are journaled
# run/resume segments, so multiplexing and the drain/restart may only
# move the summary's "trace" line (cache/replay counters, functions of
# where the slice boundaries fell); journals must match byte for byte.
VDIR=$(mktemp -d)
_build/default/bin/prose.exe serve --root "$VDIR" --slots 2 --slice 4 \
  > "$VDIR/serve.log" 2>&1 &
SERVE_PID=$!
while [ ! -S "$VDIR/prose.sock" ]; do sleep 0.02; done
_build/default/bin/prose.exe submit --root "$VDIR" funarc --workers 0
_build/default/bin/prose.exe submit --root "$VDIR" funarc --seed 7 --workers 0 \
  --fault-transient 0.05 --fault-seed 7
# drain once the first job has real progress, so the SIGTERM lands
# mid-campaign (poll, because wall time is machine-fast)
while [ "$(wc -l < "$VDIR/jobs/j001/campaign/journal.jsonl" 2> /dev/null || echo 0)" -lt 8 ]; do
  sleep 0.02
done
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
# a restarted server resumes every in-flight journal bit-identically
# (zero re-evaluation of the journaled prefix) and finishes both jobs
_build/default/bin/prose.exe serve --root "$VDIR" --slots 2 --slice 4 \
  >> "$VDIR/serve.log" 2>&1 &
SERVE_PID=$!
while [ ! -S "$VDIR/prose.sock" ]; do sleep 0.02; done
_build/default/bin/prose.exe watch --root "$VDIR" j001
_build/default/bin/prose.exe watch --root "$VDIR" j002
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
_build/default/bin/prose.exe tune funarc --workers 0 \
  --journal "$VDIR/solo1" --json "$VDIR/solo1.json" > /dev/null
_build/default/bin/prose.exe tune funarc --seed 7 --workers 0 \
  --fault-transient 0.05 --fault-seed 7 \
  --journal "$VDIR/solo2" --json "$VDIR/solo2.json" > /dev/null
diff "$VDIR/solo1/journal.jsonl" "$VDIR/jobs/j001/campaign/journal.jsonl"
diff "$VDIR/solo2/journal.jsonl" "$VDIR/jobs/j002/campaign/journal.jsonl"
grep -v -e '"trace"' "$VDIR/solo1.json" > "$VDIR/solo1_cmp.json"
grep -v -e '"trace"' "$VDIR/jobs/j001/summary.json" > "$VDIR/j001_cmp.json"
diff -u "$VDIR/solo1_cmp.json" "$VDIR/j001_cmp.json"
grep -v -e '"trace"' "$VDIR/solo2.json" > "$VDIR/solo2_cmp.json"
grep -v -e '"trace"' "$VDIR/jobs/j002/summary.json" > "$VDIR/j002_cmp.json"
diff -u "$VDIR/solo2_cmp.json" "$VDIR/j002_cmp.json"

# Fleet-dedup gate: two campaigns in the same evaluation space (same
# model, same config, same seed) through one server share the
# process-wide evaluation memo — each variant is evaluated once
# fleet-wide, and memo-served records are journaled normally plus a
# {"kind":"shared",...} provenance line naming the donor job. Stripping
# those lines must recover the solo journal byte for byte, the summaries
# must match solo modulo the "trace" line, and the trailing job must
# account a nonzero cumulative shared counter (the leader, at
# --priority 2, stays ahead, so the follower is served almost entirely
# from the fleet). The server prepares the shared space once: exactly one
# slice line of this server's lifetime says "prepared".
FLEET_LOG_START=$(wc -l < "$VDIR/serve.log")
_build/default/bin/prose.exe serve --root "$VDIR" --slots 2 --slice 4 \
  >> "$VDIR/serve.log" 2>&1 &
SERVE_PID=$!
while [ ! -S "$VDIR/prose.sock" ]; do sleep 0.02; done
_build/default/bin/prose.exe submit --root "$VDIR" funarc --seed 11 --workers 0 \
  --priority 2
_build/default/bin/prose.exe submit --root "$VDIR" funarc --seed 11 --workers 0
_build/default/bin/prose.exe watch --root "$VDIR" j003
_build/default/bin/prose.exe watch --root "$VDIR" j004
_build/default/bin/prose.exe jobs show --root "$VDIR" j004 | tee "$VDIR/j004_show.txt"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
_build/default/bin/prose.exe tune funarc --seed 11 --workers 0 \
  --journal "$VDIR/solo3" --json "$VDIR/solo3.json" > /dev/null
grep -v '"kind":"shared"' "$VDIR/jobs/j003/campaign/journal.jsonl" > "$VDIR/j003_j.jsonl"
grep -v '"kind":"shared"' "$VDIR/jobs/j004/campaign/journal.jsonl" > "$VDIR/j004_j.jsonl"
diff "$VDIR/solo3/journal.jsonl" "$VDIR/j003_j.jsonl"
diff "$VDIR/solo3/journal.jsonl" "$VDIR/j004_j.jsonl"
grep -v -e '"trace"' "$VDIR/solo3.json" > "$VDIR/solo3_cmp.json"
grep -v -e '"trace"' "$VDIR/jobs/j003/summary.json" > "$VDIR/j003_cmp.json"
grep -v -e '"trace"' "$VDIR/jobs/j004/summary.json" > "$VDIR/j004_cmp.json"
diff -u "$VDIR/solo3_cmp.json" "$VDIR/j003_cmp.json"
diff -u "$VDIR/solo3_cmp.json" "$VDIR/j004_cmp.json"
# the memo actually fired: `jobs show` prints the fleet-dedup gauge only
# when the job's cumulative shared counter is nonzero (the summary's
# "trace" line covers just the finishing slice, which can be all-replay),
# and the server log accounted at least one memo-served slice
grep 'fleet dedup:' "$VDIR/j004_show.txt" > /dev/null
grep -E ', [1-9][0-9]* memo-shared\)' "$VDIR/serve.log" > /dev/null
tail -n +"$((FLEET_LOG_START + 1))" "$VDIR/serve.log" > "$VDIR/fleet.log"
test "$(grep -c '^slice j00[34]: .*, prepared$' "$VDIR/fleet.log")" -eq 1
rm -rf "$VDIR"
