#!/bin/sh
# One-command CI gate: build everything, run the full test suite, smoke
# the JSON-emitting benches at quick scale (under _build/bench-smoke, so
# the committed full-scale BENCH_*.json files stay untouched), run each
# benchmark workload briefly with its answer checks, then drive the
# server and the shell's observability commands end to end and check the
# trace sink's JSONL.
#
# Build, tests and the sanitizer pass stop the run at their first
# failure. Every later gate runs regardless of the others, prints its own
# failure, and the script exits 1 at the end if any of them failed.
# Run from the repository root:  sh scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."
ROOT=$(pwd)

echo "== build =="
dune build @all

echo "== tests =="
dune runtest

echo "== tests (per-statement sanitizer on) =="
# --force: dune caches passing tests; the env var must actually reach them
DKB_SANITIZE=1 dune runtest --force

FAILED=""
# gate NAME FUNCTION: run one gate in a subshell that stops at its first
# failing command, and record the failure instead of ending the run
gate() {
  echo "== $1 =="
  set +e
  (set -e; "$2")
  rc=$?
  set -e
  if [ "$rc" -ne 0 ]; then
    echo "FAILED gate: $1 (exit $rc)"
    FAILED="$FAILED $2"
  fi
}

lint_gate() {
  # every shipped script must be diagnostics-clean (exit 0, no output)
  LINT_OUT=$(dune exec bin/dkb.exe -- check \
    examples/scripts/*.dkb \
    test/cram/shell_session.dkb test/cram/policy_session.dkb \
    test/cram/txn_session.dkb test/cram/txn_recover.dkb) \
    || { echo "lint gate: error-class diagnostics"; echo "$LINT_OUT"; exit 1; }
  [ -z "$LINT_OUT" ] || { echo "lint gate: shipped scripts must be diagnostics-clean"; echo "$LINT_OUT"; exit 1; }
  # the seeded-defect fixture must be rejected (non-zero exit)
  if dune exec bin/dkb.exe -- check test/cram/lint_defects.dkb > /dev/null 2>&1; then
    echo "lint gate: seeded defects were not flagged"; exit 1
  fi
  echo "lint gate OK"
}
gate "lint gate" lint_gate

SMOKE=_build/bench-smoke
bench_smoke() {
  # the benches write their JSON to the working directory
  rm -rf "$SMOKE"
  mkdir -p "$SMOKE"
  (cd "$SMOKE" && ../default/bench/main.exe wal cache profile joins updates storage server quick)
  for f in wal cache profile joins updates storage server; do
    test -s "$SMOKE/BENCH_$f.json" || { echo "BENCH_$f.json missing/empty"; exit 1; }
  done
}
gate "bench smoke (quick scale)" bench_smoke

storage_gate() {
  # paged storage: the cold skewed join's simulated page_reads must land
  # within 2x of the cost estimate, and the dataset (4x the buffer pool)
  # must still complete with correct answers
  grep -q '"gate_cold_within_2x": true' "$SMOKE/BENCH_storage.json" \
    || { echo "storage bench: cold simulated page_reads not within 2x of the cost estimate"; exit 1; }
  grep -q '"gate_capacity_4x": true' "$SMOKE/BENCH_storage.json" \
    || { echo "storage bench: dataset 4x the pool did not complete correctly"; exit 1; }
  grep -q '"gate_lfp_answers": true' "$SMOKE/BENCH_storage.json" \
    || { echo "storage bench: disk-backed LFP answers diverged from in-memory"; exit 1; }
  echo "storage bench OK"
}
gate "storage bench gates" storage_gate

joins_gate() {
  # the cost-based planner must not regress against greedy by more than 10%
  # on the skewed 3-way join (and the LFP delta feedback must have helped)
  awk '
    /"skewed_3way"/ { in_skewed = 1 }
    in_skewed && /"mode": "greedy"/  { if (match($0, /"total_io": [0-9]+/)) greedy = substr($0, RSTART + 12, RLENGTH - 12) }
    in_skewed && /"mode": "costed"/  { if (match($0, /"total_io": [0-9]+/)) costed = substr($0, RSTART + 12, RLENGTH - 12); in_skewed = 0 }
    /"improved": true/ { improved = 1 }
    END {
      if (greedy == "" || costed == "") { print "BENCH_joins.json missing measures"; exit 1 }
      if (costed + 0 > greedy * 1.10) { print "costed planner regressed vs greedy: " costed " > 1.10 * " greedy; exit 1 }
      if (!improved) { print "LFP delta feedback did not improve inner-loop I/O"; exit 1 }
      print "joins bench OK: costed=" costed " greedy=" greedy
    }
  ' "$SMOKE/BENCH_joins.json"
}
gate "joins bench gate" joins_gate

updates_gate() {
  # maintained views must stay tuple-identical to a from-scratch LFP, every
  # single-edge delta must propagate incrementally, and maintenance must not
  # be slower than full re-evaluation (the >= 5x headline on the recursive
  # scenarios is asserted at full scale; quick scale gates "never slower")
  awk '
    /"name"/ {
      ok = index($0, "\"ok\": true") > 0
      if (!ok) { print "updates bench: differential check failed: " $0; bad = 1 }
      if (match($0, /"incremental_ms": [0-9.]+/)) incr = substr($0, RSTART + 18, RLENGTH - 18)
      if (match($0, /"recompute_ms": [0-9.]+/)) recomp = substr($0, RSTART + 16, RLENGTH - 16)
      if (match($0, /"fallbacks": [0-9]+/)) fb = substr($0, RSTART + 13, RLENGTH - 13)
      if (incr == "" || recomp == "") { print "updates bench: missing measures: " $0; bad = 1 }
      else if (incr + 0 > recomp + 0) { print "updates bench: incremental slower than recompute: " incr " > " recomp; bad = 1 }
      if (fb + 0 > 0) { print "updates bench: single-edge deltas fell back " fb " times"; bad = 1 }
      n += 1
    }
    END {
      if (n < 3) { print "updates bench: expected 3 scenarios, saw " n; exit 1 }
      if (bad) exit 1
      print "updates bench OK: " n " scenarios maintained incrementally"
    }
  ' "$SMOKE/BENCH_updates.json"
}
gate "updates bench gate" updates_gate

server_bench_gate() {
  # the concurrent server: 8-client aggregate throughput must be at least
  # 2x the single-client baseline, a snapshot reader's p95 latency under a
  # churning LFP writer must stay within 3x of idle, and every pinned read
  # must have seen the exact snapshot state
  awk '
    /"multi_client"/ { sect = "multi" }
    /"interference"/ { sect = "intf" }
    sect == "multi" && /"met"/ { multi_met = index($0, "\"met\": true") > 0 }
    sect == "intf" && /"met"/ {
      intf_met = index($0, "\"met\": true") > 0
      consistent = index($0, "\"consistent\": true") > 0
    }
    END {
      if (!multi_met) { print "server bench: multi-client scaling gate failed"; exit 1 }
      if (!intf_met) { print "server bench: reader/writer interference gate failed"; exit 1 }
      if (!consistent) { print "server bench: snapshot reads were not consistent"; exit 1 }
      print "server bench OK: scaling and interference gates met"
    }
  ' "$SMOKE/BENCH_server.json"
}
gate "server bench gates" server_bench_gate

PERF=_build/perfbench-smoke
perfbench_smoke() {
  # each benchmark workload runs for 2 s and verifies every answer; its
  # result line (the last on stdout) must report correct and 0 failed ops
  rm -rf "$PERF"
  mkdir -p "$PERF"
  for w in derive maintain wire; do
    LINE=$(cd "$PERF" && ../default/perfbench/dkbbench.exe --workload "$w" --seed 1 \
      --seconds 2 --trace 0 --dkbd "$ROOT/_build/default/bin/dkbd.exe" | tail -n 1)
    echo "$w: $LINE"
    case "$LINE" in
      *'"correct": true'*'"failed": 0,'*) ;;
      *) echo "perfbench $w: not correct, or failed ops"; exit 1 ;;
    esac
  done
  # traced runs print per-op counters; [metric NAME] reads one off $LINE
  traced() {
    LINE=$(cd "$PERF" && ../default/perfbench/dkbbench.exe --workload "$1" --seed 1 \
      --seconds 2 --trace 1 --dkbd "$ROOT/_build/default/bin/dkbd.exe" | tail -n 1)
    case "$LINE" in
      *'"correct": true'*'"failed": 0,'*) ;;
      *) echo "perfbench $1 (traced): not correct, or failed ops: $LINE"; exit 1 ;;
    esac
  }
  metric() {
    V=$(echo "$LINE" | sed -n "s/.*\"$1\": {\"value\": \([0-9.eE+-]*\),.*/\1/p")
    [ -n "$V" ] || { echo "perfbench (traced): no $1: $LINE" >&2; exit 1; }
    echo "$V"
  }
  # a traced maintain run: every maintenance text is fixed per view and
  # comes from the statement cache, so an op builds a plan only for its
  # base-fact DELETE (one text per fact: it is the WAL's redo record);
  # per-tuple maintenance texts would build one plan each (a count, not
  # a time)
  traced maintain
  PLANS=$(metric engine.plans_built) || exit 1
  awk -v p="$PLANS" 'BEGIN { exit !(p <= 2) }' \
    || { echo "perfbench maintain (traced): $PLANS plans built per op (> 2)"; exit 1; }
  echo "maintain (traced): $PLANS plans built per op (<= 2)"
  # a traced derive run: the semi-naive loop writes a derived tuple as a
  # candidate and into its member, and swaps the delta in without a
  # write; the seed's copy into the first delta brings the ratio a little
  # above 2 (a count, not a time; a third write per tuple reads ~3.2)
  traced derive
  ROWS=$(metric runtime.rows_inserted) || exit 1
  NEW=$(metric runtime.new_tuples) || exit 1
  awk -v r="$ROWS" -v n="$NEW" 'BEGIN { exit !(n > 0 && r <= 2.3 * n) }' \
    || { echo "perfbench derive (traced): $ROWS rows inserted for $NEW new tuples (> 2.3 per tuple)"; exit 1; }
  echo "derive (traced): $ROWS rows inserted for $NEW new tuples (<= 2.3 per tuple)"
  # a traced wire run: each connection's templates are parsed and planned
  # once and every EXEC binds its arguments to them, so no op builds a
  # plan after warm-up (splicing the arguments into new SQL text would
  # build ~0.52 plans per op)
  traced wire
  PLANS=$(metric engine.plans_built) || exit 1
  awk -v p="$PLANS" 'BEGIN { exit !(p <= 0.01) }' \
    || { echo "perfbench wire (traced): $PLANS plans built per op (> 0.01)"; exit 1; }
  echo "wire (traced): $PLANS plans built per op (<= 0.01)"
}
gate "perfbench smoke (derive, maintain, wire; traced maintain plans, derive rows per tuple, wire plans)" perfbench_smoke

server_smoke() {
  DLOG=$(mktemp /tmp/dkb_ci_dkbd.XXXXXX)
  SEED=$(mktemp /tmp/dkb_ci_seed.XXXXXX)
  C1=$(mktemp /tmp/dkb_ci_c1.XXXXXX)
  C2=$(mktemp /tmp/dkb_ci_c2.XXXXXX)
  C3=$(mktemp /tmp/dkb_ci_c3.XXXXXX)
  DKBD=""
  # a failing check must not leave dkbd running
  trap '[ -z "$DKBD" ] || kill "$DKBD" 2>/dev/null; rm -f "$DLOG" "$SEED" "$C1" "$C2" "$C3"' EXIT

  echo "CREATE TABLE acct (id integer, bal integer); INSERT INTO acct VALUES (1, 10), (2, 20), (3, 30)" > "$SEED"
  ./_build/default/bin/dkbd.exe --port 0 --script "$SEED" > "$DLOG" 2>&1 &
  DKBD=$!
  PORT=""
  i=0
  while [ $i -lt 100 ]; do
    PORT=$(sed -n 's/^dkbd listening on \([0-9][0-9]*\)$/\1/p' "$DLOG")
    [ -n "$PORT" ] && break
    i=$((i + 1))
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "dkbd did not start"; cat "$DLOG"; exit 1; }
  # three clients at once: one defines a base and runs a derivation, one
  # holds a snapshot over the seeded table, and one sends an integer
  # literal too large for an int, then PING on the same connection
  printf 'BASE parent p:str c:str\nSQL INSERT INTO parent VALUES (%s), (%s)\nRULE anc(X,Y) :- parent(X,Y).\nRULE anc(X,Y) :- parent(X,Z), anc(Z,Y).\nQUERY anc(a, W)\nQUIT\n' \
    "'a', 'b'" "'b', 'c'" | ./_build/default/bin/dkbc.exe --port "$PORT" > "$C1" &
  P1=$!
  printf 'PING\nBEGIN SNAPSHOT\nSQL SELECT COUNT(*) FROM acct\nCOMMIT\nQUIT\n' \
    | ./_build/default/bin/dkbc.exe --port "$PORT" > "$C2" &
  P2=$!
  printf 'SQL SELECT id FROM acct WHERE id = 99999999999999999999\nPING\nQUIT\n' \
    | ./_build/default/bin/dkbc.exe --port "$PORT" > "$C3" &
  P3=$!
  wait $P1 || { echo "client 1 transport failure"; cat "$C1"; exit 1; }
  wait $P2 || { echo "client 2 transport failure"; cat "$C2"; exit 1; }
  wait $P3 || { echo "client 3 transport failure"; cat "$C3"; exit 1; }
  grep -q "^OK rows=2$" "$C1" || { echo "derivation over the wire failed"; cat "$C1"; exit 1; }
  grep -q "^3$" "$C2" || { echo "snapshot count over the wire failed"; cat "$C2"; exit 1; }
  if grep -q "^ERR" "$C1" "$C2"; then echo "server smoke: unexpected ERR"; cat "$C1" "$C2"; exit 1; fi
  # client 3: one ERR for the literal, then the PING reply (line 3)
  [ "$(grep -c "^ERR" "$C3")" -eq 1 ] && grep -q "^ERR .*integer literal out of range" "$C3" \
    || { echo "oversized literal: expected one typed ERR"; cat "$C3"; exit 1; }
  [ "$(sed -n 3p "$C3")" = "OK" ] || { echo "PING after the oversized literal not answered"; cat "$C3"; exit 1; }
  printf 'SHUTDOWN\n' | ./_build/default/bin/dkbc.exe --port "$PORT" > /dev/null
  wait $DKBD || { DKBD=""; echo "dkbd did not shut down cleanly"; exit 1; }
  DKBD=""
  echo "server smoke OK: port $PORT, 3 concurrent clients, clean shutdown"
}
gate "server smoke (dkbd + concurrent dkbc clients)" server_smoke

shell_smoke() {
  TRACE=$(mktemp /tmp/dkb_ci_trace.XXXXXX)
  SCRIPT=$(mktemp /tmp/dkb_ci_script.XXXXXX)
  OUT=$(mktemp /tmp/dkb_ci_out.XXXXXX)
  trap 'rm -f "$TRACE" "$SCRIPT" "$OUT"' EXIT
  : > "$TRACE"
  cat > "$SCRIPT" <<EOF
.base parent(par int, child int)
.index parent(par)
.index parent(child)
.sql INSERT INTO parent VALUES (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
.trace on $TRACE
.analyze SELECT p.par, q.child FROM parent p, parent q WHERE p.child = q.par
?- ancestor(1, W).
.profile ancestor(1, W)
.analyze CREATE TABLE should_be_rejected (x int)
?- nosuchpred(X).
.store
.materialize ancestor
.insert parent(7, 8)
.delete parent(7, 8)
.trace off
.quit
EOF
  dune exec bin/dkb.exe -- "$SCRIPT" > "$OUT" 2>&1

  grep -q "Total: reads=" "$OUT" || { echo ".analyze produced no totals"; cat "$OUT"; exit 1; }
  # the two deliberate errors must be reported, not crash the shell
  grep -qi "error" "$OUT" || { echo "error paths not reported"; cat "$OUT"; exit 1; }

  test -s "$TRACE" || { echo "trace sink is empty"; exit 1; }
  # every line is one JSON object with an "ev" tag
  BAD=$(grep -cv '^{"ev":".*}$' "$TRACE" || true)
  [ "$BAD" -eq 0 ] || { echo "$BAD malformed trace lines"; exit 1; }
  grep -q '"ev":"iteration"' "$TRACE" || { echo "no iteration events"; exit 1; }
  grep -q '"ev":"stmt_end"' "$TRACE" || { echo "no stmt_end events"; exit 1; }
  grep -q '"ev":"query_begin"' "$TRACE" || { echo "no query_begin events"; exit 1; }
  grep -q '"ev":"maint".*"maintained":true' "$TRACE" || { echo "no maintained maint events"; exit 1; }
  echo "trace sink OK: $(wc -l < "$TRACE") events"
}
gate "shell observability smoke" shell_smoke

if [ -n "$FAILED" ]; then
  echo "== ci FAILED:$FAILED =="
  exit 1
fi
echo "== ci OK =="
