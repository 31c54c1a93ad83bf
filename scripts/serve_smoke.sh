#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the live telemetry service.
#
# Builds dapsim (race detector on), starts it with -serve on a random port
# (port 0, so parallel CI jobs never collide), waits for the replicated
# quick run to finish, asserts that /healthz and /metrics answer 200 and
# that the metric families the dashboard depends on (DAP credit gauges,
# runner pool counters) are present, then checks the server shuts down
# cleanly on SIGINT (exit 0 via context cancellation).
#
# Every failure path — including the server never printing its bound
# address — dumps the server's captured output so a CI log is actionable
# without a rerun.
set -u

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
log="$tmp/dapsim.log"
pid=""

cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

dump_log() {
    echo "--- dapsim output ($log) ---" >&2
    if [ -s "$log" ]; then
        cat "$log" >&2
    else
        echo "(no output captured)" >&2
    fi
    echo "--- end dapsim output ---" >&2
}

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    dump_log
    exit 1
}

# wait_for <deadline-seconds> <description> <predicate...>
# Polls the predicate every 0.5s; fails (with server output) when the
# server dies or the deadline passes.
wait_for() {
    local deadline=$1 what=$2
    shift 2
    local tries=$((deadline * 2))
    for _ in $(seq 1 "$tries"); do
        "$@" && return 0
        kill -0 "$pid" 2>/dev/null || fail "dapsim exited while waiting for $what"
        sleep 0.5
    done
    fail "timeout: $what did not happen within ${deadline}s"
}

echo "serve-smoke: building dapsim (-race)"
go build -race -o "$tmp/dapsim" ./cmd/dapsim || fail "build"

"$tmp/dapsim" -quick -workload mcf -policy dap -metrics-every 20000 \
    -replicate 2 -j 2 -serve 127.0.0.1:0 >"$log" 2>&1 &
pid=$!

# Startup: the server must print its bound address promptly; a hang here is
# the classic mis-binding failure, so surface the server's own output.
bound_addr() {
    addr=$(sed -n 's|^telemetry: serving on http://||p' "$log" | head -1)
    [ -n "$addr" ]
}
addr=""
wait_for 60 "bound address on stdout" bound_addr
echo "serve-smoke: serving on $addr"

run_complete() { grep -q "run complete" "$log"; }
wait_for 120 "replicated run completion" run_complete

code=$(curl -s -o "$tmp/healthz" -w '%{http_code}' "http://$addr/healthz") || fail "curl /healthz"
[ "$code" = 200 ] || fail "/healthz returned $code"
grep -q '"status"' "$tmp/healthz" || fail "/healthz body lacks status: $(cat "$tmp/healthz")"

code=$(curl -s -o "$tmp/metrics" -w '%{http_code}' "http://$addr/metrics") || fail "curl /metrics"
[ "$code" = 200 ] || fail "/metrics returned $code"
for family in dap_credit_fwb runner_jobs_done sim_runs_finished_total \
    telemetry_http_request_seconds_bucket; do
    grep -q "^$family" "$tmp/metrics" || fail "/metrics missing $family"
done

kill -INT "$pid"
wait "$pid"
status=$?
[ "$status" = 0 ] || fail "dapsim exited $status after SIGINT, want clean 0"
pid=""

# Phase 2: the sweep service exposes the job-lifecycle observability
# surface — latency histogram families on /metrics, the Chrome trace
# endpoint, and a clean 404 (not a routing error) for a job with no flight
# recording.
echo "serve-smoke: starting sweep service"
log="$tmp/sweep.log"
"$tmp/dapsim" -serve 127.0.0.1:0 -sweep-dir "$tmp/state" -sweep-workers 2 \
    >"$log" 2>&1 &
pid=$!

sweep_addr() {
    addr=$(sed -n 's|^sweep service: serving on http://\([^ ]*\).*|\1|p' "$log" | head -1)
    [ -n "$addr" ]
}
addr=""
wait_for 60 "sweep service bound address" sweep_addr
echo "serve-smoke: sweep service on $addr"

code=$(curl -s -o "$tmp/smetrics" -w '%{http_code}' "http://$addr/metrics") || fail "curl sweep /metrics"
[ "$code" = 200 ] || fail "sweep /metrics returned $code"
for family in sweep_execute_seconds_bucket store_put_seconds_bucket; do
    grep -q "^$family" "$tmp/smetrics" || fail "sweep /metrics missing $family"
done

code=$(curl -s -o "$tmp/flight" -w '%{http_code}' "http://$addr/jobs/12345/flight") || fail "curl /jobs/12345/flight"
[ "$code" = 404 ] || fail "/jobs/12345/flight returned $code, want 404"
grep -q "no flight recording for job 12345" "$tmp/flight" \
    || fail "/jobs/12345/flight body is not the flight 404: $(cat "$tmp/flight")"

code=$(curl -s -o "$tmp/trace" -w '%{http_code}' "http://$addr/trace") || fail "curl /trace"
[ "$code" = 200 ] || fail "/trace returned $code"
grep -q '"traceEvents"' "$tmp/trace" || fail "/trace is not Chrome trace JSON: $(head -c 200 "$tmp/trace")"

kill -INT "$pid"
wait "$pid"
status=$?
[ "$status" = 0 ] || fail "sweep service exited $status after SIGINT, want clean 0"
pid=""

echo "serve-smoke: PASS"
