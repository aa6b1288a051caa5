#!/bin/sh
# Net line count of a change: lines added, removed and net per top-level
# directory (src, tests, docs, bench, scripts; everything else is
# "other") between <base-ref> and the working tree, staged changes
# included. New files count once git knows them (`git add -N`).
#
# Usage: scripts/net_lines.sh <base-ref>
set -eu
if [ $# -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
cd "$(dirname -- "$0")/.."
git diff --numstat --no-renames "$1" -- | awk '
  $1 != "-" {
    dir = $3; sub(/\/.*/, "", dir)
    if (dir !~ /^(src|tests|docs|bench|scripts)$/) dir = "other"
    add[dir] += $1; del[dir] += $2
  }
  END {
    n = split("src tests docs bench scripts other", order, " ")
    for (i = 1; i <= n; i++) {
      d = order[i]
      printf "%-8s +%d -%d net %+d\n", d, add[d], del[d], add[d] - del[d]
    }
  }'
