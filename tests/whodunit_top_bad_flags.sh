#!/bin/sh
# whodunit_top must reject malformed or out-of-range flags with exit 2
# before running anything, and must exit 1 when an output file cannot
# be written completely.
#   usage: whodunit_top_bad_flags.sh <path to whodunit_top>
set -u
top=$1
status=0

expect() {
  want=$1
  shift
  out=$("$top" "$@" 2>&1)
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: whodunit_top $* exited $got, want $want" >&2
    printf '%s\n' "$out" | tail -n 5 >&2
    status=1
  fi
}

expect 2 --interval 0
expect 2 --interval -5
expect 2 --clients abc
expect 2 --clients 10x
expect 2 --clients 0
expect 2 --clients 99999999999
expect 2 --duration -1
expect 2 --duration 0
expect 2 --duration ""
expect 2 --shards 0
expect 2 --threads 0
expect 2 --warmup -1
expect 2 --duration 10 --warmup 10
expect 2 --duration 10 --warmup 11
expect 2 --seed -3
expect 2 --sample-rate 0.5x
expect 2 --sample-rate nan
expect 2 --sample-rate 1.5
expect 2 --sample-rate -0.1
expect 2 --offered-load -5
expect 2 --offered-load inf
expect 2 --offered-load nan
expect 2 --publish-batch 8
expect 2 --duration

# A write that cannot complete (/dev/full: every write fails with
# ENOSPC) must fail the run, not report the file as written.
if [ -w /dev/full ]; then
  run="--duration 2 --warmup 1 --clients 1 --interval 1 --no-clear"
  # shellcheck disable=SC2086
  out=$("$top" $run --json-out /dev/full 2>&1)
  got=$?
  if [ "$got" -ne 1 ] || printf '%s\n' "$out" | grep -q "written"; then
    echo "FAIL: --json-out /dev/full exited $got (want 1) or claimed success" >&2
    status=1
  fi
  # The same flags with a writable output still succeed.
  # shellcheck disable=SC2086
  "$top" $run --json-out /dev/null > /dev/null 2>&1 || {
    echo "FAIL: valid short run did not exit 0" >&2
    status=1
  }
fi

[ "$status" -eq 0 ] && echo "whodunit_top_bad_flags: OK"
exit "$status"
