#!/bin/sh
# Usage: cache_rerun.sh MICROPROBE_EXE
# Runs `microprobe bootstrap mulld fadd` twice against one fresh cache
# directory: the second run must print exactly what the first printed,
# and `mp-cache stat --json` must then report nonzero measurement-cache
# and replay-store entries.
set -eu
exe="$1"
for v in $(env | sed -n 's/^\(MP_[A-Za-z0-9_]*\)=.*/\1/p'); do
  unset "$v"
done
dir="cache_rerun.d"
rm -rf "$dir"
export MP_CACHE_DIR="$dir"
"$exe" bootstrap mulld fadd > "$dir.first"
"$exe" bootstrap mulld fadd > "$dir.second"
diff "$dir.first" "$dir.second"
"$exe" mp-cache stat --json > "$dir.json"
grep -q '"cache": {"entries": [1-9]' "$dir.json" || {
  echo "no measurement-cache entries:" >&2; cat "$dir.json" >&2; exit 1; }
grep -q '"replay": {"entries": [1-9]' "$dir.json" || {
  echo "no replay-store entries:" >&2; cat "$dir.json" >&2; exit 1; }
rm -rf "$dir" "$dir.first" "$dir.second" "$dir.json"
