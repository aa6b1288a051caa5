#!/bin/sh
# Docs drift check: every src/<subsystem>/ directory must have a section in
# docs/ARCHITECTURE.md, the files docs link to must exist, and the
# docs/METRICS.md catalog and schema version must match the metrics src/
# exports. Run from anywhere; registered with ctest as `check_docs`. Also
# checks that every benchmark the docs name is registered in bench/, and
# that every type name and every part of a qualified name (`Type::member`)
# the docs name occurs in the code.
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

# The schema example in METRICS.md must carry the version obs::ToJson
# writes (kSchemaVersion in src/obs/export.cc).
written=$(sed -n 's/.*kSchemaVersion = \([0-9][0-9]*\);.*/\1/p' "$repo_root/src/obs/export.cc")
shown=$(sed -n '/^## JSON export schema/,/^## /p' "$metrics_doc" \
        | sed -n 's/.*"version": \([0-9][0-9]*\).*/\1/p' | head -n 1)
if [ -z "$written" ] || [ "$written" != "$shown" ]; then
  echo "check_docs: docs/METRICS.md shows metrics schema version \"$shown\" but src/obs/export.cc writes \"$written\"" >&2
  status=1
fi

# Every backticked repo path in the docs must exist, so a deleted or
# renamed file cannot leave its mention behind. One {a,b} group is
# expanded (`src/sim/event.{h,cc}`), a `:name` suffix is dropped, and a
# program stem counts when its .cc or .cpp source exists
# (`examples/offline_report`).
for doc in "$repo_root"/docs/*.md "$repo_root/README.md"; do
  paths=$(grep -oE '`(src|bench|tests|scripts|examples|perfbench)/[A-Za-z0-9_./{},:-]*`' "$doc" \
          | tr -d '`' | sed 's/:.*//' | sort -u)
  for path in $paths; do
    case "$path" in
      *"{"*)
        prefix=${path%%\{*}
        rest=${path#*\{}
        suffix=${rest#*\}}
        files=$(printf '%s\n' "${rest%%\}*}" | tr ',' '\n' \
                | sed "s|^|$prefix|; s|\$|$suffix|")
        ;;
      *) files=$path ;;
    esac
    for f in $files; do
      if [ ! -e "$repo_root/$f" ] && [ ! -e "$repo_root/$f.cc" ] \
         && [ ! -e "$repo_root/$f.cpp" ]; then
        echo "check_docs: $f is named in ${doc#"$repo_root"/} but does not exist" >&2
        status=1
      fi
    done
  done
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

# Every backticked two-hump CamelCase name (`SimMutex`, `QueueElem`) in
# the docs must occur as a word in the code, so a deleted or renamed
# type cannot leave its mention behind.
named=$(cat "$repo_root"/docs/*.md "$repo_root/README.md" "$repo_root/DESIGN.md" \
        | grep -oE '`[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*`' | tr -d '`' | sort -u)
for name in $named; do
  if ! grep -rqw -- "$name" "$repo_root/src" "$repo_root/bench" "$repo_root/examples" \
       "$repo_root/perfbench" "$repo_root/tests"; then
    echo "check_docs: $name is named in the docs but does not occur in the code" >&2
    status=1
  fi
done

# Every backticked qualified name (`ContextTree::Append`, `obs::Registry()`)
# in the same files: each `::`-separated part must occur as a word in the
# code, so a deleted type or member cannot survive behind its qualifier.
# Names under `std::` are the library's, not the code's.
qualified=$(cat "$repo_root"/docs/*.md "$repo_root/README.md" "$repo_root/DESIGN.md" \
            | grep -oE '`[^`]+`' \
            | grep -oE '[A-Za-z_][A-Za-z0-9_]*(::~?[A-Za-z_][A-Za-z0-9_]*)+' \
            | grep -v '^std::' | sort -u)
for name in $qualified; do
  for part in $(printf '%s\n' "$name" | sed 's/::~*/ /g'); do
    if ! grep -rqw -- "$part" "$repo_root/src" "$repo_root/bench" "$repo_root/examples" \
         "$repo_root/perfbench" "$repo_root/tests"; then
      echo "check_docs: $name is named in the docs but $part does not occur in the code" >&2
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "check_docs: OK"
fi
exit "$status"
