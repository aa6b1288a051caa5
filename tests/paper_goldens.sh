#!/bin/sh
# Paper-text goldens: runs each deterministic paper binary and compares
# its stdout byte for byte with <goldens-dir>/<binary name>.txt.
#
# Usage: paper_goldens.sh <goldens-dir> <binary>...
#
# Each binary runs in a fresh scratch directory with the bench knobs
# that change what is printed unset, so the metrics-dump line reads
# "./BENCH_<name>.metrics.json" everywhere. To re-record one golden
# after a deliberate output change:
#   (cd "$(mktemp -d)" && /path/to/build/bench/<name> > tests/goldens/<name>.txt)
set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <goldens-dir> <binary>..." >&2
  exit 2
fi
goldens=$1
shift

unset WHODUNIT_METRICS_DIR BENCH_SAMPLE_RATE BENCH_SHARDS BENCH_THREADS
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0

for bin in "$@"; do
  name=$(basename "$bin")
  golden="$goldens/$name.txt"
  if [ ! -f "$golden" ]; then
    echo "paper_goldens: no golden $golden for $name" >&2
    status=1
    continue
  fi
  rm -rf "$work/run" && mkdir "$work/run"
  (cd "$work/run" && "$bin" > "$work/$name.out")
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "paper_goldens: $name exited $rc" >&2
    status=1
  elif ! cmp -s "$golden" "$work/$name.out"; then
    echo "paper_goldens: $name stdout differs from $golden:" >&2
    diff -u "$golden" "$work/$name.out" | head -40 >&2
    status=1
  else
    echo "paper_goldens: $name OK"
  fi
done
exit "$status"
