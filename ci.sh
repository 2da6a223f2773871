#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

# Informational, never fails: the size counts ROADMAP item 9 tracks (lines
# outside tests/ dirs, the same cut at the first #[cfg(test)], `pub fn`s,
# and the line counts of DESIGN.md and EXPERIMENTS.md).
echo "==> size"
{
  rs_files=$(find crates src -name '*.rs' -not -path '*/tests/*')
  echo "    lines outside tests/ dirs: $(echo "$rs_files" | xargs cat | wc -l)"
  echo "    lines cut at #[cfg(test)]: $(for f in $rs_files; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | wc -l)"
  echo "    pub fn: $(grep -rc "pub fn " crates/*/src src --include=*.rs | awk -F: '{s += $2} END {print s}')"
  echo "    DESIGN.md lines: $(wc -l <DESIGN.md)"
  echo "    EXPERIMENTS.md lines: $(wc -l <EXPERIMENTS.md)"
} || true

# Clippy is also the panic-path gate: the runtime crates deny unwrap,
# expect, panic! and unreachable! (exec and serve also deny indexing), so
# every exception is an #[expect(..., reason = "...")] at its site.
echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Doc links are checked too: a link to a renamed or deleted item, or a
# public doc that links a private one, fails here instead of rotting.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# The generated-batch differential suite (tests/generated_batches.rs) ran
# its fixed seed set above; this is its deep arm, in release so that 200
# catalogs and batches (six optimize + execute rounds each) stay cheap.
echo "==> generated batches, deep arm (CSE_GEN_BATCHES=200, release)"
gen_start=$(date +%s)
CSE_GEN_BATCHES=200 cargo test -q --release --test generated_batches
echo "    generated batches: $(( $(date +%s) - gen_start )) s wall"

# qlint gate: the static analyzer's output over the committed SQL corpus
# must match the golden files byte-for-byte (rule ids, messages, spans),
# and deny mode must accept the clean corpus and reject the findings one.
echo "==> qlint corpus (golden files + deny gate)"
QLINT=(cargo run -q --release --bin qlint --)
for f in tests/corpus/*.sql; do
  "${QLINT[@]}" --sf 0.001 "$f" | diff -u "${f%.sql}.golden" - \
    || { echo "qlint output drifted for $f"; exit 1; }
done
"${QLINT[@]}" --sf 0.001 --deny tests/corpus/clean.sql >/dev/null
if "${QLINT[@]}" --sf 0.001 --deny tests/corpus/findings.sql >/dev/null 2>&1; then
  echo "qlint --deny failed to reject tests/corpus/findings.sql"
  exit 1
fi

# Lint only reports: the optimizer must not link the analyzer, and the
# gate lives in qsql, which lints a batch before planning it.
echo "==> cse-core does not depend on cse-lint; qsql --lint=deny gate"
core_deps=$(cargo tree --offline -e normal -p cse-core)
if grep -q 'cse-lint' <<<"$core_deps"; then
  echo "cse-core depends on cse-lint"
  exit 1
fi
QSQL_DENY=(cargo run -q --release --bin qsql -- --sf 0.001 --lint=deny)
denied=$("${QSQL_DENY[@]}" <tests/corpus/findings.sql 2>&1)
grep -q "lint denied" <<<"$denied" \
  || { echo "qsql --lint=deny accepted tests/corpus/findings.sql"; exit 1; }
accepted=$("${QSQL_DENY[@]}" <tests/corpus/clean.sql 2>&1)
if grep -q "lint denied" <<<"$accepted"; then
  echo "qsql --lint=deny rejected tests/corpus/clean.sql"
  exit 1
fi

# One retry path: a session answers a faulted batch by planning it again
# on the baseline rung. Table 1's batch under a certain spool fault must
# print the result lines (stdout lines not starting with `--`) that the
# forced baseline prints, and report the fault on stderr.
echo "==> qsql: a spool fault answers like --no-cse-fallback-only (Table 1)"
table1="select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, sum(l_quantity) as lq \
from customer, orders, lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey \
and o_orderdate < '1996-07-01' and c_nationkey > 0 and c_nationkey < 20 \
group by c_nationkey, c_mktsegment; \
select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq \
from customer, orders, lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey \
and o_orderdate < '1996-07-01' and c_nationkey > 5 and c_nationkey < 25 group by c_nationkey; \
select n_regionkey, sum(l_extendedprice) as le, sum(l_quantity) as lq \
from customer, orders, lineitem, nation where c_custkey = o_custkey and o_orderkey = l_orderkey \
and c_nationkey = n_nationkey and o_orderdate < '1996-07-01' \
and c_nationkey > 2 and c_nationkey < 24 group by n_regionkey;"
QSQL=(cargo run -q --release --bin qsql -- --sf 0.001)
fault_log=$(mktemp)
faulted=$(printf '%s\n:quit\n' "$table1" \
  | "${QSQL[@]}" --fail spool.materialize:1.0 2>"$fault_log" | grep -v '^--')
forced=$(printf '%s\n:quit\n' "$table1" \
  | "${QSQL[@]}" --no-cse-fallback-only 2>/dev/null | grep -v '^--')
[[ -n "$forced" && "$faulted" == "$forced" ]] \
  || { echo "faulted Table 1 differs from the forced baseline:"; \
       diff <(echo "$faulted") <(echo "$forced"); exit 1; }
grep -q EXEC_FAULT_INJECTED "$fault_log" \
  || { echo "the spool fault was not reported: $(cat "$fault_log")"; exit 1; }
rm -f "$fault_log"

# One fallback for the CSE phase: a zero budget trips the phase once, under
# one clock, and the batch answers from the baseline plan it already held.
echo "==> qsql: a zero budget answers like --no-cse-fallback-only (Table 1)"
trip_log=$(mktemp)
tripped=$(printf '%s\n:quit\n' "$table1" \
  | "${QSQL[@]}" --budget-ms 0 2>"$trip_log" | grep -v '^--')
[[ -n "$forced" && "$tripped" == "$forced" ]] \
  || { echo "tripped Table 1 differs from the forced baseline:"; \
       diff <(echo "$tripped") <(echo "$forced"); exit 1; }
trips=$(grep -o OPT_DEADLINE "$trip_log" | wc -l)
[[ "$trips" -eq 1 ]] \
  || { echo "expected OPT_DEADLINE once, saw $trips: $(cat "$trip_log")"; exit 1; }
rm -f "$trip_log"

# Fault-injection seed matrix: the adversarial robustness suite and the
# concurrent serving stress suite must hold for every seed, not just the
# default. Each seed reshuffles which scans / spools / worker slots fail
# under probabilistic injection; correctness, terminal outcomes, and
# cross-worker-count determinism are asserted regardless.
for seed in 1 7 42; do
  echo "==> robustness suite (CSE_FAIL_SEED=$seed)"
  CSE_FAIL_SEED=$seed cargo test -q --test robustness
  echo "==> serving stress suite (CSE_FAIL_SEED=$seed)"
  CSE_FAIL_SEED=$seed cargo test -q --test serve_stress
  echo "==> memory storm suite (CSE_FAIL_SEED=$seed)"
  CSE_FAIL_SEED=$seed cargo test -q --test memory_storm
done

# Overload smoke: a 500-request open-loop run at 1x/2x/4x saturation.
# The harness itself asserts the robustness contract — every request
# reaches exactly one terminal outcome, every rejection carries a
# load-shedding reason code (SHED_MEMORY / SHED_QUEUE_FULL /
# REQ_DEADLINE), zero worker panics — so a nonzero exit here means the
# contract broke. Each point is one stdout row, its multiplier first.
echo "==> overload smoke (500 requests, open loop)"
overload=$(cargo run -q --release -p cse-bench --bin report -- overload \
  --sf 0.002 --requests 500)
grep -qE '^ +4 ' <<<"$overload" \
  || { echo "overload smoke missing the 4x point: $overload"; exit 1; }

# qserve smoke: every corpus request must reach a terminal outcome
# through the concurrent server. The findings corpus carries statements
# qlint flags but the engine still executes, so it must fully complete;
# the recovery corpus opens with a deliberate syntax error, which must be
# classified PLAN_REJECTED (no retries) while the rest of the file is
# still served.
echo "==> qserve smoke (tests/corpus/*.sql)"
QSERVE=(cargo run -q --release --bin qserve --)
for f in tests/corpus/clean.sql tests/corpus/findings.sql; do
  "${QSERVE[@]}" --sf 0.001 --workers 4 --block "$f" >/dev/null \
    || { echo "qserve rejected a request from $f"; exit 1; }
done
if out=$("${QSERVE[@]}" --sf 0.001 --workers 4 --block tests/corpus/recovery.sql); then
  echo "qserve accepted the broken statement in recovery.sql"
  exit 1
fi
grep -q "PLAN_REJECTED" <<<"$out" \
  || { echo "recovery.sql rejection missing PLAN_REJECTED: $out"; exit 1; }
grep -q "done" <<<"$out" \
  || { echo "recovery.sql healthy request was not served: $out"; exit 1; }

# Durability smoke: crash qserve at the WAL append failpoint while it
# seeds a fresh data directory, then restart against the same directory
# and require a clean recovery + serve. Swept over three seeds. The
# deeper per-failpoint × per-seed crash matrix runs in `cargo test`
# (tests/recovery_storm.rs); this gate proves the binary wiring.
echo "==> recovery smoke (crash at wal.append, restart, verify)"
for seed in 1 7 42; do
  data_dir=$(mktemp -d)
  if "${QSERVE[@]}" --sf 0.001 --data-dir "$data_dir" --fail "wal.append:1.0:$seed" \
      tests/corpus/clean.sql >/dev/null 2>&1; then
    echo "qserve survived a certain wal.append fault (seed $seed)"
    exit 1
  fi
  restart=$("${QSERVE[@]}" --sf 0.001 --data-dir "$data_dir" tests/corpus/clean.sql 2>&1 >/dev/null) \
    || { echo "restart after wal.append crash failed (seed $seed): $restart"; exit 1; }
  rm -rf "$data_dir"
done

# Negative probe: corruption inside the durable WAL prefix must be
# detected at recovery and reported with its stable reason code — a
# server that silently serves a lossy catalog is the failure mode this
# whole layer exists to prevent.
echo "==> recovery negative probe (corrupted WAL checksum is fatal and reported)"
data_dir=$(mktemp -d)
"${QSERVE[@]}" --sf 0.001 --data-dir "$data_dir" tests/corpus/clean.sql >/dev/null 2>&1 \
  || { echo "durable qserve baseline run failed"; exit 1; }
# Flip one bit inside the first WAL frame's payload.
printf '\x01' | dd of="$data_dir/wal" bs=1 seek=20 count=1 conv=notrunc status=none
if out=$("${QSERVE[@]}" --sf 0.001 --data-dir "$data_dir" tests/corpus/clean.sql 2>&1 >/dev/null); then
  echo "qserve served a catalog recovered from a corrupted WAL"
  exit 1
fi
grep -q "WAL_CORRUPT_FRAME" <<<"$out" \
  || { echo "corrupted WAL rejection missing WAL_CORRUPT_FRAME: $out"; exit 1; }
rm -rf "$data_dir"

# Benchmark-of-record smoke: verdicts and one count, no timing gate. All five
# workloads: the one that bypasses sharing, the one through the server,
# the one where every plan writes and reads a spool, the one the CSE phase
# dominates, and the write path (inserts maintaining the §6.4 views, every
# view compared with recomputation); each run ends with a result line
# whose first field is the correctness verdict.
# Building benchmark/ without --locked lets cargo prune its Cargo.lock of
# packages the tree no longer has; that file is frozen, so put it back.
echo "==> benchmark smoke (its own tests; every workload: verdict; no-share, share-batch and opt-heavy: sharable signatures, candidate and spool counts, re-optimizations or rows scanned, result and spool rows, memo size; estimated-cost ratios and spool-row q-errors; view-maint sharing)"
lock_backup=$(mktemp)
cp benchmark/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" benchmark/Cargo.lock; rm -f "$lock_backup"' EXIT
# The benchmark's own tests: its frozen golden fingerprints and its
# result-line contract, against the tree as it is now.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
# The value of one traced metric in a result line.
metric() {
  grep -oE "\"$1\": \{\"value\": [0-9]+" <<<"$2" | grep -oE '[0-9]+$' || true
}
# The same for a float metric, to 6 significant digits.
fmetric() {
  local value
  value=$(grep -oE "\"$1\": \{\"value\": [-+.0-9eE]+" <<<"$2" | grep -oE '[-+.0-9eE]+$' || true)
  [[ -z "$value" ]] || printf '%.6g' "$value"
}
for workload in no-share serve-mix share-batch opt-heavy view-maint; do
  # Every workload but serve-mix runs traced: its counts are deterministic.
  trace=1
  [[ "$workload" == serve-mix ]] && trace=0
  verdict=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seconds 2 --trace "$trace" | tail -n 1)
  [[ "$verdict" == '{"correct": true,'* ]] \
    || { echo "benchmark $workload verdict: $verdict"; exit 1; }
  # Candidate generation and scans may get cheaper, not different: a change
  # that moves generation's input (the sharable signatures), or drops or
  # adds a candidate, a spool, a re-optimization, a scanned row or a spool
  # read fails here, and so does one that splits or merges groups, which
  # moves the memo's size and the result and spool row counts. Each row is
  # "workload metric count".
  while read -r name_workload name want; do
    [[ "$name_workload" == "$workload" ]] || continue
    got=$(metric "$name" "$verdict")
    [[ "$got" == "$want" ]] \
      || { echo "$workload $name is '${got}', expected $want"; exit 1; }
  done <<'COUNTS'
no-share core.candidates 0
no-share core.spools_used 0
no-share exec.base_rows_scanned 5183928
share-batch core.candidates 56
share-batch core.spools_used 33
share-batch core.cse_optimizations 113
opt-heavy core.candidates 45
opt-heavy core.spools_used 15
opt-heavy core.cse_optimizations 339
share-batch exec.result_rows 3863
share-batch exec.spool_rows 80594
opt-heavy exec.result_rows 2255
opt-heavy exec.spool_rows 136169
share-batch exec.base_rows_scanned 2879438
share-batch exec.spool_reads 106
opt-heavy exec.base_rows_scanned 747771
opt-heavy exec.spool_reads 72
no-share exec.result_rows 1440
opt-heavy memo.groups 1389
opt-heavy memo.gexprs 4137
share-batch memo.groups 1979
share-batch memo.gexprs 4234
no-share memo.groups 972
no-share memo.gexprs 1440
opt-heavy core.sharable_signatures 186
share-batch core.sharable_signatures 181
COUNTS
  # Row estimates, to 6 significant digits: the estimated-cost ratio and
  # the spool rows' q-error read every estimate a plan choice made. A change
  # to the row estimator moves them and must update these rows on purpose.
  while read -r name_workload name want; do
    [[ "$name_workload" == "$workload" ]] || continue
    got=$(fmetric "$name" "$verdict")
    [[ "$got" == "$want" ]] \
      || { echo "$workload $name is '${got}', expected $want"; exit 1; }
  done <<'ESTIMATES'
share-batch core.est_cost_ratio 2.11826
opt-heavy core.est_cost_ratio 2.25712
view-maint core.est_cost_ratio 2.02592
no-share core.est_cost_ratio 1
share-batch cost.spool_rows_qerr 1.41133
opt-heavy cost.spool_rows_qerr 3.00364
ESTIMATES
  if [[ "$workload" == opt-heavy ]]; then
    # One group per logical join: 4 137 expressions today, 15 405 when
    # every join order reached a join got a group of its own.
    gexprs=$(metric memo.gexprs "$verdict")
    [[ -n "$gexprs" && "$gexprs" -le 5000 ]] \
      || { echo "opt-heavy memo.gexprs is '${gexprs}', above 5000"; exit 1; }
  fi
  if [[ "$workload" == view-maint ]]; then
    # The maintenance batch joins a small delta through indexes, which is
    # cheap; it must still share, and each traced insert reports its batch's
    # one candidate, whether it planned the batch or ran the cached plan:
    # 80 inserts, 80 candidates.
    candidates=$(metric maintenance.candidates "$verdict")
    [[ "$candidates" == 80 ]] \
      || { echo "view-maint maintenance.candidates is '${candidates}', expected 80 (one per traced insert)"; exit 1; }
  fi
done

echo "==> ci.sh: all green"
