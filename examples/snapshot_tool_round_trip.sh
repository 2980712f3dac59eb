#!/bin/sh
# snapshot_tool end to end from the command line: compile four small-world
# days, re-encode them as delta chains, verify and diff them, expand them
# back to keyframes and verify again. Every expanded day must equal a fresh
# compile of the same day, and a delta copied off its YYYYMMDD.dls name
# must fail `verify` with exit 1 (its base chain resolves by date).
#
#   usage: snapshot_tool_round_trip.sh SNAPSHOT_TOOL WORK_DIR
set -eu
tool=$1
dir=$2/dls
ref=$2/ref
rm -rf "$dir" "$ref"

"$tool" compile --dir="$dir" --small --days=4 --stride=1 > /dev/null
"$tool" compile --dir="$ref" --small --days=4 --stride=1 > /dev/null
"$tool" delta --dir="$dir" --keyframe-every=2 2> /dev/null

# Days 0 and 2 stay keyframes; days 1 and 3 become deltas over the day
# before.
out=$("$tool" verify "$dir"/2*.dls)
test "$(echo "$out" | grep -c ': OK')" -eq 4
test "$(echo "$out" | grep -c 'delta over')" -eq 2

first=$(ls "$dir"/2*.dls | head -n 1)
second=$(ls "$dir"/2*.dls | head -n 2 | tail -n 1)
last=$(ls "$dir"/2*.dls | tail -n 1)
"$tool" diff "$first" "$last" --quiet 2> /dev/null

cp "$second" "$dir/off_name.dls"
rc=0
"$tool" verify "$dir/off_name.dls" > /dev/null || rc=$?
test "$rc" -eq 1
rm "$dir/off_name.dls"

"$tool" expand --dir="$dir" 2> /dev/null
out=$("$tool" verify "$dir"/2*.dls)
test "$(echo "$out" | grep -c ': OK')" -eq 4
test "$(echo "$out" | grep -c 'delta over')" -eq 0

for f in "$ref"/2*.dls; do
  "$tool" diff "$f" "$dir/$(basename "$f")" --quiet 2>&1 | grep -q 'events=0 '
done
echo "snapshot_tool round trip OK"
