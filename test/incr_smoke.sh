#!/bin/sh
# Incremental-maintenance smoke over the wire: stream a scripted
# sequence of UPDATE/RETRACT batches through datalogd (protocol v2),
# reading the maintained model back with QUERY live=true after every
# batch, and require the final live answer to be byte-identical to
# (a) a from-scratch QUERY on the same server (whose EDB was patched
# by the same updates) and (b) a second, update-free server loaded
# directly with the final fact set. A second dataset puts a counting
# stratum (twohop) over the recursive path and retracts an edge with a
# second route, so part of the overdeletion is rederived; after every
# batch each derived predicate's live rows must equal the same-server
# recomputation. Both streams run on both session runtimes: sim, and
# domain (the daemon's default).
#
# Usage: incr_smoke.sh DATALOGD
set -eu

datalogd=$1
dir=$(mktemp -d "${TMPDIR:-/tmp}/incr_smoke.XXXXXX")
server=
server2=
cleanup () {
  [ -n "$server" ] && kill "$server" 2>/dev/null || true
  [ -n "$server2" ] && kill "$server2" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT
sock="$dir/d.sock"
sock2="$dir/d2.sock"

cat > "$dir/tc.dl" <<'EOF'
path(X,Y) :- edge(X,Y).
path(X,Y) :- edge(X,Z), path(Z,Y).
EOF

# Start state: a chain 1 -> ... -> 6.
i=1
: > "$dir/start.dl"
while [ "$i" -lt 6 ]; do
  echo "edge($i,$((i + 1)))." >> "$dir/start.dl"
  i=$((i + 1))
done

fail () {
  echo "incr_smoke: $1" >&2
  cat "$dir/server.log" >&2 || true
  exit 1
}

# One client session: request lines on stdin, replies on stdout. A
# nonzero exit fails the smoke with the client's exit code and stderr.
client () {
  what=$1
  shift
  rc=0
  "$datalogd" --connect "$@" 2> "$dir/client.err" || rc=$?
  if [ "$rc" -ne 0 ]; then
    fail "$what exited $rc: $(cat "$dir/client.err")"
  fi
}

# The client's own connect retries cover about a second; a daemon
# still starting on a loaded machine can take longer. Wait for a PING
# answer, failing fast if the daemon dies and giving up after 60 s.
wait_ready () {
  ready_sock=$1 ready_pid=$2 ready_log=$3
  deadline=$(( $(date +%s) + 60 ))
  until printf 'PING\n' | "$datalogd" --connect "$ready_sock" > /dev/null 2>&1
  do
    kill -0 "$ready_pid" 2>/dev/null \
      || fail "daemon on $ready_sock exited before answering: $(cat "$ready_log")"
    [ "$(date +%s)" -lt "$deadline" ] \
      || fail "daemon on $ready_sock not ready after 60 s"
    sleep 0.1
  done
}

# One scripted stream against a fresh pair of daemons on RUNTIME.
stream () {
  runtime=$1
  "$datalogd" --socket "$sock" --runtime "$runtime" -j 2 \
    --load tc="$dir/tc.dl" --facts tc="$dir/start.dl" \
    > "$dir/server.log" 2>&1 &
  server=$!

  wait_ready "$sock" "$server" "$dir/server.log"

  # The scripted stream: grow a branch, cut the chain in the middle,
  # reconnect it elsewhere, then retract several edges at once (one of
  # them absent). Each batch mixes signed inserts/deletes;
  # every live query in between must answer from the maintained model
  # (scheme=live), never a re-evaluation.
  out=$(client "update stream" "$sock" <<'EOF'
UPDATE id=u1 prog=tc
+edge(6,7). edge(7,8).
.
QUERY id=l1 prog=tc live=true
UPDATE id=u2 prog=tc
-edge(3,4).
+edge(3,8).
.
QUERY id=l2 prog=tc live=true
RETRACT id=u3 prog=tc
edge(7,8).
.
QUERY id=l3 prog=tc live=true
RETRACT id=u4 prog=tc
edge(1,2). edge(5,6).
edge(9,9).
.
QUERY id=l4 prog=tc live=true rows=true
EOF
  ) || exit 1

  echo "$out" | grep -q 'OK update prog=tc id=u1' \
    || fail "u1 not acknowledged: $out"
  echo "$out" | grep -q 'OK retract prog=tc id=u3' \
    || fail "u3 not acknowledged: $out"
  echo "$out" | grep -q 'OK retract prog=tc id=u4 added=0 removed=9' \
    || fail "u4 did not retract two edges and their seven paths: $out"
  echo "$out" | grep -q 'RESULT id=l4 status=ok .* scheme=live' \
    || fail "final live query did not answer from the live model: $out"

  # Replaying a mid-stream batch id must be byte-identical and must not
  # apply the batch a second time (the final model below stays exact).
  replay=$(printf 'UPDATE id=u2 prog=tc\n-edge(3,4).\n+edge(3,8).\n.\n' \
             | client replay "$sock") \
    || exit 1
  echo "$out" | grep -qF "$(echo "$replay" | grep 'OK update prog=tc id=u2')" \
    || fail "replay of u2 was not byte-identical: $replay"

  live_rows=$(echo "$out" | sed -n '/RESULT id=l4/,/END id=l4/p' | grep '^ROW ')

  # (a) From-scratch recomputation on the same server: the EDB was
  # patched batch-by-batch, so a plain QUERY must see the same rows.
  scratch=$(printf 'QUERY id=s1 prog=tc rows=true\n' \
              | client "from-scratch query" "$sock") \
    || exit 1
  scratch_rows=$(echo "$scratch" | grep '^ROW ')
  [ "$live_rows" = "$scratch_rows" ] \
    || fail "live rows differ from same-server recomputation:
live:    $live_rows
scratch: $scratch_rows"

  # (b) An independent server loaded with the final fact set directly.
  cat > "$dir/final.dl" <<'EOF'
edge(2,3). edge(4,5). edge(6,7). edge(3,8).
EOF
  "$datalogd" --socket "$sock2" --runtime "$runtime" -j 2 \
    --load tc="$dir/tc.dl" --facts tc="$dir/final.dl" \
    > "$dir/server2.log" 2>&1 &
  server2=$!
  wait_ready "$sock2" "$server2" "$dir/server2.log"
  fresh=$(printf 'QUERY id=f1 prog=tc rows=true\n' \
            | client "fresh-server query" "$sock2") \
    || exit 1
  fresh_rows=$(echo "$fresh" | grep '^ROW ')
  [ "$live_rows" = "$fresh_rows" ] \
    || fail "live rows differ from a fresh batch recomputation:
live:  $live_rows
fresh: $fresh_rows"

  # Toggle one edge off and on twice: every re-insert lands on a tuple
  # the previous retraction removed from the resident store. After each
  # step the live model must equal a from-scratch recomputation on the
  # same server, and after the last it must be the final fact set again.
  for step in t1:RETRACT:-:removed t2:UPDATE:+:added \
              t3:RETRACT:-:removed t4:UPDATE:+:added
  do
    IFS=: read -r id verb sign counter <<STEP
$step
STEP
    sign=${sign#-}
    reply=$(printf '%s id=%s prog=tc\n%sedge(2,3).\n.\nQUERY id=%sl prog=tc live=true rows=true\nQUERY id=%ss prog=tc rows=true\n' \
              "$verb" "$id" "$sign" "$id" "$id" \
              | client "toggle $id" "$sock") \
      || exit 1
    echo "$reply" | grep -q "OK .* id=$id .*$counter=3" \
      || fail "toggle $id did not move edge(2,3) and its two paths: $reply"
    echo "$reply" | grep -q "RESULT id=${id}l status=ok .* scheme=live" \
      || fail "toggle $id: live query did not answer from the live model: $reply"
    toggle_live=$(echo "$reply" | sed -n "/RESULT id=${id}l/,/END id=${id}l/p" | grep '^ROW ' || true)
    toggle_scratch=$(echo "$reply" | sed -n "/RESULT id=${id}s/,/END id=${id}s/p" | grep '^ROW ' || true)
    [ "$toggle_live" = "$toggle_scratch" ] \
      || fail "toggle $id: live rows differ from same-server recomputation:
live:    $toggle_live
scratch: $toggle_scratch"
  done
  [ "$toggle_live" = "$fresh_rows" ] \
    || fail "after the toggles the live model is not the final fact set:
live:  $toggle_live
fresh: $fresh_rows"

  kill -TERM "$server" && wait "$server" || fail "server drain failed"
  server=
  kill -TERM "$server2" && wait "$server2" || fail "second server drain failed"
  server2=

  n=$(echo "$live_rows" | wc -l | tr -d ' ')
  echo "incr_smoke: $runtime ok (4 batches + replay + 4 toggles, $n final rows, live = scratch = fresh)"
}

cat > "$dir/hop.dl" <<'EOF'
path(X,Y) :- edge(X,Y).
path(X,Y) :- edge(X,Z), path(Z,Y).
twohop(X,Y) :- path(X,Z), path(Z,Y).
EOF
cat > "$dir/hop_start.dl" <<'EOF'
edge(1,2). edge(2,3). edge(1,3). edge(3,4). edge(4,5).
EOF

# After batch ID, PRED's live rows must be non-empty and equal the
# same server's from-scratch rows.
same_rows () {
  id=$1 pred=$2
  reply=$(printf 'QUERY id=%sl prog=hop goal=%s live=true rows=true\nQUERY id=%ss prog=hop goal=%s rows=true\n' \
            "$id" "$pred" "$id" "$pred" \
            | client "$id $pred rows" "$sock") \
    || exit 1
  echo "$reply" | grep -q "RESULT id=${id}l status=ok .* scheme=live" \
    || fail "$id: live $pred query did not answer from the live model: $reply"
  hop_live=$(echo "$reply" | sed -n "/RESULT id=${id}l/,/END id=${id}l/p" | grep '^ROW ' || true)
  hop_scratch=$(echo "$reply" | sed -n "/RESULT id=${id}s/,/END id=${id}s/p" | grep '^ROW ' || true)
  [ -n "$hop_live" ] && [ "$hop_live" = "$hop_scratch" ] \
    || fail "$id: live $pred rows differ from same-server recomputation:
live:    $hop_live
scratch: $hop_scratch"
}

# The two-stratum stream against a fresh daemon on RUNTIME.
hop_stream () {
  runtime=$1
  "$datalogd" --socket "$sock" --runtime "$runtime" -j 2 \
    --load hop="$dir/hop.dl" --facts hop="$dir/hop_start.dl" \
    > "$dir/server.log" 2>&1 &
  server=$!
  wait_ready "$sock" "$server" "$dir/server.log"

  # edge(1,3) is a second route: retracting edge(1,2) overdeletes
  # path(1,2..5) and rederives path(1,3..5). twohop(1,3) loses its one
  # derivation, twohop(1,4) one of its two.
  out=$(printf 'RETRACT id=r1 prog=hop\nedge(1,2).\n.\n' \
          | client "hop retract" "$sock") || exit 1
  echo "$out" | grep -q 'OK retract prog=hop id=r1 added=0 removed=3' \
    || fail "r1 did not remove edge(1,2), path(1,2) and twohop(1,3): $out"
  same_rows r1 path
  same_rows r1 twohop

  # path(3,5) is overdeleted, not rederived, then inserted again.
  out=$(printf 'UPDATE id=u1 prog=hop\n-edge(3,4).\n+edge(3,5).\n.\n' \
          | client "hop update" "$sock") || exit 1
  echo "$out" | grep -q 'OK update prog=hop id=u1 added=1 removed=7' \
    || fail "u1 did not move one edge, three paths and three twohops: $out"
  same_rows u1 path
  same_rows u1 twohop

  kill -TERM "$server" && wait "$server" || fail "hop server drain failed"
  server=
  echo "incr_smoke: $runtime hop ok (a rederiving retract + a mixed update, live = scratch per predicate)"
}

stream sim
stream domain
hop_stream sim
hop_stream domain
