#!/bin/sh
# Bench env knobs must reject malformed or out-of-range values with
# exit 2 and a message naming the variable, before simulating anything.
#   usage: bench_bad_env.sh <bench_fig12_throughput> <bench_scaling_clients>
set -u
fig12=$1
scaling=$2
status=0
# Metric dumps from the one valid run land here, not in the cwd.
WHODUNIT_METRICS_DIR=$(mktemp -d)
export WHODUNIT_METRICS_DIR
trap 'rm -rf "$WHODUNIT_METRICS_DIR"' EXIT

# expect <exit code> <bench> <VAR=value>...
expect() {
  want=$1
  bench=$2
  shift 2
  out=$(env "$@" "$bench" 2>&1 >/dev/null)
  got=$?
  var=${1%%=*}
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $* $(basename "$bench") exited $got, want $want" >&2
    printf '%s\n' "$out" | tail -n 5 >&2
    status=1
  elif [ "$want" -eq 2 ] && ! printf '%s\n' "$out" | grep -q "$var"; then
    echo "FAIL: $* $(basename "$bench") did not name $var" >&2
    status=1
  fi
}

expect 2 "$fig12" BENCH_THREADS=0
expect 2 "$fig12" BENCH_THREADS=-1
expect 2 "$fig12" BENCH_THREADS=abc
expect 2 "$fig12" BENCH_THREADS=2x
expect 2 "$fig12" BENCH_THREADS=99999999999
expect 2 "$fig12" BENCH_SHARDS=0
expect 2 "$fig12" BENCH_SHARDS=1.5
expect 2 "$fig12" BENCH_SAMPLE_RATE=2
expect 2 "$fig12" BENCH_SAMPLE_RATE=0
expect 2 "$fig12" BENCH_SAMPLE_RATE=-0.5
expect 2 "$fig12" BENCH_SAMPLE_RATE=0.5x
expect 2 "$fig12" BENCH_SAMPLE_RATE=nan
expect 2 "$scaling" BENCH_SAMPLE_RATE=abc
expect 2 "$scaling" BENCH_SCALING_MAX_CLIENTS=1e5
expect 2 "$scaling" BENCH_SCALING_MAX_CLIENTS=999
expect 2 "$scaling" BENCH_SCALING_MAX_CLIENTS=abc
expect 2 "$scaling" BENCH_SCALING_MAX_CLIENTS=99999999999
expect 2 "$scaling" BENCH_SCALING_SCALES=500
expect 2 "$scaling" BENCH_SCALING_SCALES=1000,abc
expect 2 "$scaling" BENCH_SCALING_SCALES=1000,
expect 2 "$scaling" BENCH_SCALING_SCALES=,1000
expect 2 "$scaling" BENCH_SCALING_SCALES=1000,,2000
expect 2 "$scaling" BENCH_SCALING_SCALES=1e4

# Well-formed values still run: one small scale point at 1% sampling.
expect 0 "$scaling" BENCH_SCALING_SCALES=1000 BENCH_SAMPLE_RATE=0.01 \
  BENCH_THREADS=1 BENCH_SHARDS=1

[ "$status" -eq 0 ] && echo "bench_bad_env: OK"
exit "$status"
