#!/bin/sh
# Multi-process runtime smoke: spawn four worker processes over a Unix
# socket, SIGKILL one mid-run, and require the exact sequential answer
# with zero leaked processes. A second, fully deterministic variant
# drives the scheduled-crash path (self-SIGKILL + checkpoint restore)
# and checks the transport counters attribute the recovery. A third
# run breaches a store budget and must stop the fleet with exit code 4.
# Two last runs use the no-communication scheme, whose derived tuples
# stay under their original name at the processor that derived them:
# plain, and with a scheduled crash whose checkpoint must carry them.
#
# Usage: net_smoke.sh DATALOGP
set -eu

datalogp=$1
dir=$(mktemp -d "${TMPDIR:-/tmp}/net_smoke.XXXXXX")
par=
cleanup () {
  [ -n "$par" ] && kill "$par" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

fail () {
  echo "net_smoke: $1" >&2
  exit 1
}

cat > "$dir/anc.dl" <<'EOF'
anc(X,Y) :- par(X,Y).
anc(X,Y) :- anc(X,Z), par(Z,Y).
EOF
"$datalogp" gen chain --size 400 > "$dir/chain.dl"

# The sequential reference answer.
"$datalogp" run "$dir/anc.dl" --edb "$dir/chain.dl" 2>/dev/null \
  | grep '^  anc' > "$dir/seq.ans"
[ -s "$dir/seq.ans" ] || fail "empty sequential reference"

# --- external SIGKILL mid-run --------------------------------------
"$datalogp" par "$dir/anc.dl" --edb "$dir/chain.dl" \
    --runtime net --procs 4 -n 4 --json \
    > "$dir/kill.out" 2> "$dir/kill.err" &
par=$!

# Wait for a worker process (a child of the coordinator) to appear,
# then SIGKILL it while the evaluation is still in flight.
victim=
tries=0
while [ "$tries" -lt 200 ]; do
  victim=$(pgrep -P "$par" 2>/dev/null | head -n 1) && [ -n "$victim" ] && break
  kill -0 "$par" 2>/dev/null || fail "coordinator exited before spawning workers"
  tries=$((tries + 1))
  sleep 0.01 2>/dev/null || sleep 1
done
[ -n "$victim" ] || fail "no worker process appeared"
kill -KILL "$victim" 2>/dev/null || true

wait "$par" || fail "coordinator exited nonzero after worker SIGKILL"
par=

grep '^  anc' "$dir/kill.out" > "$dir/kill.ans" || true
[ -s "$dir/kill.ans" ] || fail "no answers in the killed run's output"
cmp -s "$dir/kill.ans" "$dir/seq.ans" \
  || fail "answers differ after external SIGKILL"
grep -q '"worker_restarts":[1-9]' "$dir/kill.out" \
  || fail "supervisor recorded no restart: $(grep -o '"transport":{[^}]*}' "$dir/kill.out")"

# --- deterministic scheduled crash + checkpoint restore ------------
"$datalogp" par "$dir/anc.dl" --edb "$dir/chain.dl" \
    --runtime net --procs 4 -n 4 --crash 1@2 --checkpoint 2 --json \
    > "$dir/crash.out" 2> "$dir/crash.err" \
  || fail "scheduled-crash run exited nonzero"
grep '^  anc' "$dir/crash.out" > "$dir/crash.ans" || true
cmp -s "$dir/crash.ans" "$dir/seq.ans" \
  || fail "answers differ after scheduled crash"
grep -q '"worker_restarts":[1-9]' "$dir/crash.out" \
  || fail "scheduled crash: no worker restart recorded"
grep -q '"restores":[1-9]' "$dir/crash.out" \
  || fail "scheduled crash: no checkpoint restore recorded"
grep -q '"reconnects":[1-9]' "$dir/crash.out" \
  || fail "scheduled crash: no reconnect recorded"

# --- store-budget overload stop ------------------------------------
code=0
"$datalogp" par "$dir/anc.dl" --edb "$dir/chain.dl" \
    --runtime net --procs 4 -n 4 --max-store 500 \
    > "$dir/overload.out" 2> "$dir/overload.err" || code=$?
[ "$code" -eq 4 ] || fail "store-budget run exited $code, expected 4"
grep -q '^overload: ' "$dir/overload.out" \
  || fail "store-budget run printed no overload line"

# --- no-communication scheme, plain and restored from a checkpoint --
"$datalogp" par "$dir/anc.dl" --edb "$dir/chain.dl" \
    --runtime net --procs 4 -n 4 --scheme nocomm --json \
    > "$dir/nocomm.out" 2> "$dir/nocomm.err" \
  || fail "nocomm run exited nonzero"
grep '^  anc' "$dir/nocomm.out" > "$dir/nocomm.ans" || true
cmp -s "$dir/nocomm.ans" "$dir/seq.ans" \
  || fail "nocomm answers differ from the sequential ones"

"$datalogp" par "$dir/anc.dl" --edb "$dir/chain.dl" \
    --runtime net --procs 4 -n 4 --scheme nocomm --crash 1@2 --checkpoint 2 \
    --json > "$dir/nocomm-crash.out" 2> "$dir/nocomm-crash.err" \
  || fail "nocomm scheduled-crash run exited nonzero"
grep '^  anc' "$dir/nocomm-crash.out" > "$dir/nocomm-crash.ans" || true
cmp -s "$dir/nocomm-crash.ans" "$dir/seq.ans" \
  || fail "nocomm answers differ after scheduled crash"
grep -q '"restores":[1-9]' "$dir/nocomm-crash.out" \
  || fail "nocomm scheduled crash: no checkpoint restore recorded"

# --- zero leaked processes -----------------------------------------
sleep 0.2 2>/dev/null || sleep 1
leaked=$(pgrep -f "worker --addr" 2>/dev/null | wc -l)
[ "$leaked" -eq 0 ] || fail "$leaked worker process(es) leaked"

echo "net_smoke: ok (external SIGKILL + scheduled crash both exact, overload stop, nocomm plain + restored exact, no leaks)"
