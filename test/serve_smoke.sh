#!/bin/sh
# Daemon smoke over a Unix socket: start datalogd with a resident
# program, answer a query end to end, survive a burst of concurrent
# clients, then drain cleanly on SIGTERM -- finishing in-flight work,
# unlinking the socket, and flushing metrics with no leaked sessions.
#
# Usage: serve_smoke.sh DATALOGD
set -eu

datalogd=$1
dir=$(mktemp -d "${TMPDIR:-/tmp}/serve_smoke.XXXXXX")
server=
cleanup () {
  [ -n "$server" ] && kill "$server" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT
sock="$dir/d.sock"

cat > "$dir/anc.dl" <<'EOF'
anc(X,Y) :- par(X,Y).
anc(X,Y) :- par(X,Z), anc(Z,Y).
EOF
i=0
: > "$dir/chain.dl"
while [ "$i" -lt 19 ]; do
  echo "par($i,$((i + 1)))." >> "$dir/chain.dl"
  i=$((i + 1))
done

"$datalogd" --socket "$sock" --runtime sim -j 2 \
  --load anc="$dir/anc.dl" --facts anc="$dir/chain.dl" \
  --metrics-out "$dir/metrics.json" > "$dir/server.log" 2>&1 &
server=$!

fail () {
  echo "serve_smoke: $1" >&2
  cat "$dir/server.log" >&2 || true
  exit 1
}

# The client retries its connect only briefly, and a daemon still
# starting on a loaded machine can take longer. Wait for a PING
# answer, failing fast if the daemon dies and giving up after 60 s.
deadline=$(( $(date +%s) + 60 ))
until printf 'PING\n' | "$datalogd" --connect "$sock" > /dev/null 2>&1
do
  kill -0 "$server" 2>/dev/null \
    || fail "daemon exited before answering"
  [ "$(date +%s)" -lt "$deadline" ] \
    || fail "daemon not ready after 60 s"
  sleep 0.1
done

# One client, end to end.
out=$(printf 'PING\nQUERY id=q1 prog=anc\nQUIT\n' \
        | "$datalogd" --connect "$sock") \
  || fail "single client exited nonzero"
echo "$out" | grep -q 'RESULT id=q1 status=ok rows=190' \
  || fail "unexpected single-client answer: $out"

# A burst of concurrent clients, each under its own tenant (so the
# per-tenant budget does not serialise the burst) and each retrying
# with backoff so a transient BUSY cannot fail the smoke.
n=8
c=0
while [ "$c" -lt "$n" ]; do
  printf 'QUERY id=c%s prog=anc\n' "$c" \
    | "$datalogd" --connect "$sock" --tenant "c$c" \
        --retry --retry-max 20 --jitter-seed "$c" \
        > "$dir/client-$c.out" 2>&1 &
  eval "client_$c=\$!"
  c=$((c + 1))
done
c=0
while [ "$c" -lt "$n" ]; do
  eval "pid=\$client_$c"
  wait "$pid" || fail "concurrent client $c exited nonzero"
  grep -q "RESULT id=c$c status=ok rows=190" "$dir/client-$c.out" \
    || fail "concurrent client $c got the wrong reply"
  c=$((c + 1))
done

# Drain on SIGTERM: exit 0, socket unlinked, metrics flushed, and the
# session gauge back to zero (nothing leaked).
kill -TERM "$server"
wait "$server" || fail "server exited nonzero on SIGTERM"
server=
[ ! -e "$sock" ] || fail "socket not unlinked after drain"
[ -s "$dir/metrics.json" ] || fail "metrics not flushed on drain"
grep -q '"serve.active_sessions":0' "$dir/metrics.json" \
  || fail "sessions leaked across drain: $(cat "$dir/metrics.json")"
grep -q '"serve.drains":1' "$dir/metrics.json" \
  || fail "drain not recorded in metrics"
grep -q 'datalogd: drained' "$dir/server.log" \
  || fail "drain summary missing from server log"

echo "serve_smoke: ok ($n concurrent clients, clean drain)"
