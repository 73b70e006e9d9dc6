#!/bin/sh
# CI entry point: build everything, run the full test suite, then a quick
# benchmark pass guarded against wall-clock regressions, plus two finished
# campaigns checked against the unparse->reparse pipeline.
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

# Two finished campaigns checked against the historical unparse->reparse
# pipeline (--verify-roundtrip): every committed record must equal the
# tree-walking interpreter's measurement of the reparsed variant, and a
# fresh compiled run of each must reproduce the interpreter's whole
# outcome; the first mismatch exits 1 with the model, record index,
# signature and both outcomes. mom6 --hierarchical is the registered run
# in which the batch-reuse table serves variants (8 of 150, through the
# never-used duc_w), so it checks table-served records against the
# reference; the grep fails the step if its backend line reports no
# batch-reuse hit, so it cannot pass vacuously (about 8 s).
dune exec bin/prose.exe -- tune mpas --max-variants 15 --workers 0 \
  --verify-roundtrip > /dev/null
MOUT=$(mktemp)
dune exec bin/prose.exe -- tune mom6 --hierarchical --workers 0 \
  --verify-roundtrip > "$MOUT"
grep -E '^backend: .*, [1-9][0-9]* batch-reuse hits,' "$MOUT"
rm -f "$MOUT"

# Fuzz smoke gate: 300 random well-typed programs through all five
# oracles (roundtrip, typecheck, rewrite, compiled, sensitivity) at a
# fixed seed; "compiled" is the two-way interpreter == compiled
# evaluator check, "sensitivity" checks every finite static error bound
# against the measured single-atom demotion error. Any violation is
# minimized, written to test/corpus/, and fails the run.
dune exec bin/prose.exe -- fuzz --cases 300 --seed 42

# The error-amplification mirror's soundness at a second seed: 1000 cases
# of the sensitivity oracle alone (every finite static bound must cover
# the measured single-atom demotion error, sample by sample).
dune exec bin/prose.exe -- fuzz --oracle sensitivity --cases 1000 --seed 7

# The compiled evaluator against the interpreter at two seeds: 1000 cases
# of the compiled oracle alone at each (about 2 s each).
dune exec bin/prose.exe -- fuzz --oracle compiled --cases 1000 --seed 7
dune exec bin/prose.exe -- fuzz --oracle compiled --cases 1000 --seed 42

# Allocation gate: every statement shape of the compiled evaluator's
# microbenchmark, calls and intrinsics included, must allocate 0.00
# minor words per loop iteration (the budget its header states; the
# counts do not depend on host speed). A probe that prints anything else
# fails the run; an empty report fails too.
AOUT=$(mktemp)
dune exec bench/alloc/alloc.exe > "$AOUT"
cat "$AOUT"
test -s "$AOUT"
if grep -v ' 0\.00 w/iter ' "$AOUT"; then
  echo "alloc gate: the probe(s) above allocate" >&2
  exit 1
fi
rm -f "$AOUT"

# Exact-counter gate: one joint_solo, one joint_parallel (a few seconds
# each), one table2_rank repetition (about 10 s: the only workload that
# runs the sensitivity scorer, at --predict rank) and one service_fleet
# repetition (about 5 s: the only workload that runs the service, its
# slices and the fleet memo), each checked
# against its committed BUDGET_<workload>.json. The counts do not follow timing noise, so this
# catches allocation and work regressions that timing hides: fresh
# evaluations, evaluations to the 1-minimal variant, live evaluations
# (speculative ones included) and simulated hours must match exactly,
# and the OCaml version must be the one the budget was recorded with.
# joint_parallel's live evaluations fail the gate when speculation runs
# ahead of what the search consumes. joint_solo's budget also holds
# gc.minor_words, which may rise at most 2% above it (joint_parallel
# has none: a second domain allocates there; table2_rank has none: its
# count does not repeat to the word; service_fleet has none: the server
# child's count follows how many requests it answers). gc.minor_words is exact
# for one build run from one place: DIR, its length and the working
# directory do not move it, nor does an empty environment. It can follow
# the path the executable resolves to: for one build, a byte-identical
# copy or hard link elsewhere read 64 words fewer (7.5e-6 of the count),
# for another the same; a symlink reads as its target. The cause is not
# known; the 2% slack covers it.
dune build ./perfbench/perfbench.exe
for W in joint_solo joint_parallel table2_rank service_fleet; do
CDIR=$(mktemp -d)
_build/default/perfbench/perfbench.exe run "$W" 42 "$CDIR" > "$CDIR/run.json"
python3 - "$CDIR/run.json" "BUDGET_$W.json" "$(ocamlfind ocamlopt -version)" <<'PY'
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
    sys.exit("exact-counter gate (%s):\n  " % budget_path + "\n  ".join(errors))
print("exact-counter gate: %s ok (%s)"
      % (budget_path, ", ".join("%s %s" % (k, counts[k]) for k in budget["counts"])))
PY
rm -rf "$CDIR"
done

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

# Hierarchical gate: the flow-graph group phase, then the atom phase, on
# mom6 (where the batch-reuse table serves 8 of its 150 variants) at three
# scheduler set-ups: the sequential 1x0 grid, a 2x2 grid and the
# one-shard scheduler of --workers 1. CSV, summary and the journal past
# its header line (whose "workers" field records the requested
# parallelism) must match the sequential run byte for byte.
HDIR=$(mktemp -d)
_build/default/bin/prose.exe tune mom6 --hierarchical --shards 1 --workers 0 \
  --journal "$HDIR/seq" --csv "$HDIR/seq.csv" --json "$HDIR/seq.json" > /dev/null
_build/default/bin/prose.exe tune mom6 --hierarchical --shards 2 --workers 2 \
  --journal "$HDIR/grid" --csv "$HDIR/grid.csv" --json "$HDIR/grid.json" > /dev/null
_build/default/bin/prose.exe tune mom6 --hierarchical --workers 1 \
  --journal "$HDIR/plain" --csv "$HDIR/plain.csv" --json "$HDIR/plain.json" > /dev/null
for RUN in seq grid plain; do
  tail -n +2 "$HDIR/$RUN/journal.jsonl" > "$HDIR/${RUN}_records.jsonl"
done
for RUN in grid plain; do
  diff -u "$HDIR/seq.csv" "$HDIR/$RUN.csv"
  diff -u "$HDIR/seq.json" "$HDIR/$RUN.json"
  diff "$HDIR/seq_records.jsonl" "$HDIR/${RUN}_records.jsonl"
done
rm -rf "$HDIR"

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
  --journal "$JDIR/base" --json "$JDIR/base.json" > /dev/null
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
# Continuing a journal takes --resume: the same command without it is
# refused with exit 2 and a named message, before anything is written.
cp "$JDIR/campaign/journal.jsonl" "$JDIR/journal_before.jsonl"
REFUSED=0
_build/default/bin/prose.exe tune funarc --brute-force --workers 0 \
  --journal "$JDIR/campaign" > /dev/null 2> "$JDIR/refusal.txt" || REFUSED=$?
test "$REFUSED" -eq 2
grep 'already holds a journal; continue it with --resume' "$JDIR/refusal.txt" > /dev/null
cmp "$JDIR/journal_before.jsonl" "$JDIR/campaign/journal.jsonl"
# --resume continues the journal's search at the journal's seed: a search
# flag or seed naming another is refused with exit 1 and a named message,
# before anything is written.
REFUSED=0
_build/default/bin/prose.exe tune funarc --hierarchical --workers 0 \
  --journal "$JDIR/campaign" --resume > /dev/null 2> "$JDIR/refusal.txt" || REFUSED=$?
test "$REFUSED" -eq 1
grep 'resume: journal runs brute_force, not hierarchical' "$JDIR/refusal.txt" > /dev/null
REFUSED=0
_build/default/bin/prose.exe tune funarc --brute-force --seed 9 --workers 0 \
  --journal "$JDIR/campaign" --resume > /dev/null 2> "$JDIR/refusal.txt" || REFUSED=$?
test "$REFUSED" -eq 1
grep 'resume: journal was run with seed 42, not 9' "$JDIR/refusal.txt" > /dev/null
cmp "$JDIR/journal_before.jsonl" "$JDIR/campaign/journal.jsonl"
# A journal write that fails is named with exit 1, not an internal error.
# A full disk is injected as a file-size limit with SIGXFSZ ignored, so
# the write fails with EFBIG (dash's ulimit -f counts 512-byte blocks:
# 32 is 16 KiB, about 47 of the 257 journal lines). Resumed without the
# limit, the journal past its header line and the summary minus "trace"
# must match the uninterrupted run's.
FAILED=0
sh -c 'trap "" XFSZ; ulimit -f 32; exec "$@"' sh \
  _build/default/bin/prose.exe tune funarc --brute-force --workers 0 \
  --journal "$JDIR/full" > /dev/null 2> "$JDIR/full.txt" || FAILED=$?
test "$FAILED" -eq 1
grep "prose tune: journal $JDIR/full: File too large" "$JDIR/full.txt" > /dev/null
grep 'holds the journal so far; continue it with --resume' "$JDIR/full.txt" > /dev/null
_build/default/bin/prose.exe tune funarc --brute-force --workers 0 \
  --journal "$JDIR/full" --resume --json "$JDIR/full.json" > /dev/null
tail -n +2 "$JDIR/base/journal.jsonl" > "$JDIR/base_records.jsonl"
tail -n +2 "$JDIR/full/journal.jsonl" > "$JDIR/full_records.jsonl"
diff "$JDIR/base_records.jsonl" "$JDIR/full_records.jsonl"
grep -v -e '"trace"' "$JDIR/full.json" > "$JDIR/full_cmp.json"
diff -u "$JDIR/base_cmp.json" "$JDIR/full_cmp.json"
# A journal directory that cannot be made (its parent is a regular file)
# is named with exit 1 too.
: > "$JDIR/file"
FAILED=0
_build/default/bin/prose.exe tune funarc --brute-force --workers 0 \
  --journal "$JDIR/file/D" > /dev/null 2> "$JDIR/notdir.txt" || FAILED=$?
test "$FAILED" -eq 1
grep "prose tune: journal $JDIR/file/D: mkdir $JDIR/file/D: Not a directory" \
  "$JDIR/notdir.txt" > /dev/null
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
