#!/bin/sh
# Docs drift check: every src/<subsystem>/ directory must have a section in
# docs/ARCHITECTURE.md, the files docs link to must exist, and the
# docs/METRICS.md catalog must match the metrics src/ exports. Run from
# anywhere; registered with ctest as `check_docs`. Also checks that every
# benchmark the docs name is registered in bench/.
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
arch="$repo_root/docs/ARCHITECTURE.md"
status=0

if [ ! -f "$arch" ]; then
  echo "check_docs: missing $arch" >&2
  exit 1
fi

for dir in "$repo_root"/src/*/; do
  name=$(basename "$dir")
  if ! grep -q "src/$name" "$arch"; then
    echo "check_docs: src/$name/ has no section in docs/ARCHITECTURE.md" >&2
    status=1
  fi
done

for doc in docs/ARCHITECTURE.md docs/METRICS.md docs/OBSERVABILITY.md \
           docs/PROFILE_FORMAT.md docs/PRODUCTION.md; do
  if [ ! -f "$repo_root/$doc" ]; then
    echo "check_docs: missing $doc" >&2
    status=1
  fi
done

# README must point at the docs so they stay discoverable.
for doc in ARCHITECTURE.md METRICS.md OBSERVABILITY.md PROFILE_FORMAT.md \
           PRODUCTION.md; do
  if ! grep -q "docs/$doc" "$repo_root/README.md"; then
    echo "check_docs: README.md does not link docs/$doc" >&2
    status=1
  fi
done

# Every metric the code exports (a string literal passed to
# GetCounter/GetGauge/GetHistogram anywhere under src/) must be
# documented in the docs/METRICS.md catalog.
metrics_doc="$repo_root/docs/METRICS.md"
exported=$(grep -rhoE 'Get(Counter|Gauge|Histogram)\("[^"]+"' "$repo_root/src" \
           | sed 's/.*("//; s/"$//' | sort -u)
for metric in $exported; do
  if ! grep -qF "$metric" "$metrics_doc"; then
    echo "check_docs: metric \"$metric\" is exported in src/ but not documented in docs/METRICS.md" >&2
    status=1
  fi
done

# And the reverse: every name in the first column of a METRICS.md catalog
# row must still occur as a string literal under src/, so a deleted
# metric cannot leave its row behind.
documented=$(sed -n 's/^| `\([^`]*\)` |.*/\1/p' "$metrics_doc" | sort -u)
for metric in $documented; do
  if ! grep -rqF "\"$metric\"" "$repo_root/src"; then
    echo "check_docs: metric \"$metric\" is documented in docs/METRICS.md but not found in src/" >&2
    status=1
  fi
done

# Every backticked google-benchmark name (`BM_...`) in the docs must be
# registered by a BENCHMARK(...) call under bench/, so a deleted or
# renamed benchmark cannot leave its description behind.
named=$(cat "$repo_root"/docs/*.md "$repo_root/README.md" \
        | grep -oE '`BM_[A-Za-z0-9_]+`' | tr -d '`' | sort -u)
for bm in $named; do
  if ! grep -rqE "BENCHMARK\($bm\)" "$repo_root/bench"; then
    echo "check_docs: benchmark $bm is named in the docs but not registered in bench/" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_docs: OK"
fi
exit "$status"
