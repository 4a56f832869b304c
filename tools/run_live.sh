#!/usr/bin/env sh
# Live-runtime chaos gate, run by CI (.github/workflows/ci.yml, under ASan)
# and locally before sending a runtime/ or telemetry-tail change:
#
#   tools/run_live.sh [build_dir]
#
# 1. Kill-and-resume determinism: for clean and fault-injected datasets, on
#    both engines, SIGKILL the live runner (via --crash-after, which
#    _Exit(137)s right after a checkpoint rename) at several checkpoint
#    boundaries; the resumed run must produce chains.jsonl and
#    live_report.json byte-identical to an uninterrupted run.
# 2. Stalled-stream supervision: freeze one stream mid-call; the session
#    must still analyse every window and record the stall in the report
#    instead of blocking.
# 3. Multi-session isolation: one poisoned directory among healthy ones,
#    run as `domino serve <dirs...> --max-attempts 1` (one attempt each,
#    no retries), must fail alone: exit 4, the poison QUARANTINED, the
#    healthy outputs intact.
# 4. Bounded memory: a session much longer than the horizon must keep its
#    peak retained span near the horizon and record eviction stats.
# 5. SIGTERM drain: a --follow run over a capture still being written, and
#    a run over a long finished capture, must checkpoint and exit 75 on
#    SIGTERM; rerunning resumes to output byte-identical to an undisturbed
#    run (the chain log for the growing capture, whose report depends on
#    the growth history; chain log and report for the finished one).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
domino="$build_dir/tools/domino"

if [ ! -x "$domino" ]; then
  echo "error: $domino not found or not executable." >&2
  echo "Build it first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$domino" simulate amarisoft 20 "$work/clean" --seed 7 > /dev/null
"$domino" ingest "$work/clean" \
  --inject drop=0.05,dup=0.02,reorder=0.05,gap-s=2 \
  --seed 3 --out "$work/faulted" > /dev/null || true

# run_live <dataset> <state_dir> [extra flags...]
run_live() {
  rl_ds=$1; rl_st=$2; shift 2
  "$domino" live "$rl_ds" --quiet --state "$rl_st" "$@"
}

echo "== kill-and-resume determinism =="
for ds in clean faulted; do
  for engine in "" "--naive"; do
    # shellcheck disable=SC2086  # $engine is deliberately word-split
    run_live "$work/$ds" "$work/base_state" $engine > /dev/null
    for n in 1 2 3; do
      rm -rf "$work/crash_state"
      rc=0
      # shellcheck disable=SC2086
      run_live "$work/$ds" "$work/crash_state" $engine --crash-after "$n" \
        > /dev/null 2>&1 || rc=$?
      if [ "$rc" != 137 ]; then
        echo "  FAIL: expected exit 137 from --crash-after $n, got $rc" >&2
        exit 1
      fi
      # shellcheck disable=SC2086
      run_live "$work/$ds" "$work/crash_state" $engine > /dev/null
      for f in chains.jsonl live_report.json; do
        if ! cmp -s "$work/crash_state/$f" "$work/base_state/$f"; then
          echo "  FAIL: $ds ${engine:-incremental} crash-after=$n:" \
               "$f differs after resume" >&2
          exit 1
        fi
      done
    done
    echo "  ok: $ds ${engine:-incremental} (crash at checkpoints 1-3)"
    rm -rf "$work/base_state" "$work/crash_state"
  done
done

echo "== stalled-stream supervision =="
"$domino" replay "$work/clean" "$work/stalled" --stall packets=8 > /dev/null
run_live "$work/stalled" "$work/stalled_state" --stall-deadline-s 3 \
  > "$work/stalled_out.txt"
grep -q "stalled streams at end" "$work/stalled_out.txt"
grep -q '"stalled": true' "$work/stalled_state/live_report.json"
# Every window analysed despite the dead sniffer: same window count as the
# healthy run of the same 20 s session.
run_live "$work/clean" "$work/healthy_state" > "$work/healthy_out.txt"
stalled_windows=$(sed -n 's/.*: \([0-9]*\) windows.*/\1/p' \
  "$work/stalled_out.txt")
healthy_windows=$(sed -n 's/.*: \([0-9]*\) windows.*/\1/p' \
  "$work/healthy_out.txt")
if [ "$stalled_windows" != "$healthy_windows" ]; then
  echo "  FAIL: stalled session analysed $stalled_windows windows," \
       "healthy analysed $healthy_windows" >&2
  exit 1
fi
echo "  ok: dead stream degraded, never blocked ($stalled_windows windows)"

echo "== multi-session isolation =="
mkdir -p "$work/poison"
printf 'cell_name,is_private,begin_us,end_us\n' > "$work/poison/meta.csv"
rm -rf "$work/clean/live_state" "$work/faulted/live_state"
rc=0
"$domino" serve "$work/clean" "$work/poison" "$work/faulted" \
  --max-attempts 1 --quiet > "$work/multi_out.txt" || rc=$?
if [ "$rc" != 4 ]; then
  echo "  FAIL: expected exit 4 with a poisoned session, got $rc" >&2
  exit 1
fi
grep -q "QUARANTINED" "$work/multi_out.txt"
for d in clean faulted; do
  if [ ! -s "$work/$d/live_state/live_report.json" ]; then
    echo "  FAIL: healthy session $d produced no report" >&2
    exit 1
  fi
done
echo "  ok: poisoned session failed alone, healthy sessions completed"

echo "== bounded memory =="
"$domino" simulate amarisoft 120 "$work/long" --seed 5 > /dev/null
run_live "$work/long" "$work/long_state" --horizon-s 10 > /dev/null
python3 - "$work/long_state/live_report.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
ret = r["retention"]
span = ret["peak_retained_span_s"]
assert ret["cuts"] > 0, "retention never ran"
assert ret["evicted_records"] > 0, "nothing evicted on a 120 s trace"
assert span <= 20.0, f"peak retained span {span}s not bounded by horizon"
print(f"  ok: 120 s trace, peak retained span {span}s, "
      f"{ret['evicted_records']} records evicted")
EOF

echo "== SIGTERM drain =="
# drain_live <state_dir> <out> <live args...>: starts `domino live`, sends
# SIGTERM once its chain log exists and sets drain_rc to the exit code. A
# run still alive 10 s later is SIGKILLed, so one that ignores the signal
# fails the gate instead of hanging it.
drain_live() {
  dl_st=$1; dl_out=$2; shift 2
  "$domino" live "$@" --quiet --state "$dl_st" > "$dl_out" 2>&1 &
  dl_pid=$!
  i=0
  while [ ! -e "$dl_st/chains.jsonl" ] && [ "$i" -lt 400 ]; do
    sleep 0.025; i=$((i + 1))
  done
  kill -TERM "$dl_pid" 2>/dev/null || true
  i=0
  while kill -0 "$dl_pid" 2>/dev/null && [ "$i" -lt 400 ]; do
    sleep 0.025; i=$((i + 1))
  done
  kill -KILL "$dl_pid" 2>/dev/null || true
  drain_rc=0
  wait "$dl_pid" || drain_rc=$?
  if [ "$drain_rc" != 75 ] || ! grep -q "DRAINED (resumable)" "$dl_out"; then
    echo "  FAIL: SIGTERM should drain live $* to exit 75, got $drain_rc" >&2
    cat "$dl_out" >&2
    exit 1
  fi
}
# same_outputs <state_a> <state_b> <files...>
same_outputs() {
  so_a=$1; so_b=$2; shift 2
  for f in "$@"; do
    if ! cmp -s "$so_a/$f" "$so_b/$f"; then
      echo "  FAIL: $f differs between $so_a and $so_b after drain" >&2
      exit 1
    fi
  done
}

"$domino" replay "$work/clean" "$work/grow" --interval-ms 40 > /dev/null &
replay_pid=$!
i=0
while [ ! -e "$work/grow/meta.csv" ] && [ "$i" -lt 400 ]; do
  sleep 0.025; i=$((i + 1))
done
drain_live "$work/grow_state" "$work/grow_out.txt" "$work/grow" --follow \
  --poll-sleep-ms 20
wait "$replay_pid"
run_live "$work/grow" "$work/grow_state" > /dev/null
run_live "$work/grow" "$work/grow_base" > /dev/null
same_outputs "$work/grow_state" "$work/grow_base" chains.jsonl
echo "  ok: --follow run drained to exit 75, resumed chain log identical"

run_live "$work/long" "$work/long_base" > /dev/null
drain_live "$work/long_drain" "$work/long_out.txt" "$work/long"
run_live "$work/long" "$work/long_drain" > /dev/null
same_outputs "$work/long_drain" "$work/long_base" chains.jsonl \
  live_report.json
echo "  ok: 120 s run drained to exit 75, resumed byte-identical"

echo "live chaos gate passed"
