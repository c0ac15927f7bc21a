#!/usr/bin/env bash
# Digest every deterministic output of a build, one "sha256 name" line each,
# so two builds can be checked for byte-identical behaviour with one diff:
#
#   tools/output_digests.sh parent/build > before.txt
#   tools/output_digests.sh build > after.txt
#   diff before.txt after.txt
#
# Runs the experiment binaries (build/bench/bench_*, except the timing-based
# bench_micro_substrate), the examples, a 100-seed fuzz campaign, the three
# --break harness self-tests and every corpus/ replay with its Perfetto
# trace. Each run gets a fresh directory as its working directory (the
# --break runs write reproducers there); its stdout plus exit status and
# every file it writes are digested separately, with the build, source and
# run directories replaced by placeholders.
set -euo pipefail

if [[ $# -ne 1 || ! -d $1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
src=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# digest NAME COMMAND...: run COMMAND in a fresh directory and print the
# digests of its normalized stdout (name) and of each file it wrote
# (name/file).
digest() {
  local name=$1
  shift
  local dir="$work/run/$name"
  local out="$work/out/$name"
  mkdir -p "$dir" "$work/out"
  local status=0
  (cd "$dir" && "$@" > "$out" 2> /dev/null) || status=$?
  echo "exit $status" >> "$out"
  local file
  for file in "$out" $(cd "$dir" && find . -type f | LC_ALL=C sort); do
    local label=$name
    if [[ $file != "$out" ]]; then
      label="$name/${file#./}"
      file="$dir/${file#./}"
    fi
    local sum
    sum=$(sed -e "s#$dir#<run>#g" -e "s#$build#<build>#g" -e "s#$src#<src>#g" \
            "$file" | sha256sum)
    echo "${sum%% *} $label"
  done
}

for bench in "$build"/bench/bench_*; do
  [[ $(basename "$bench") == bench_micro_substrate ]] && continue
  digest "$(basename "$bench")" "$bench"
done
for example in quickstart ipv8_rollout multicast_chicken_and_egg \
               vnbone_resilience latency_observatory figures_walkthrough; do
  digest "$example" "$build/examples/$example"
done
fuzz="$build/tools/fuzz_scenarios"
digest fuzz_campaign "$fuzz" --iterations 100 --seed 1
for breakage in silent-link-down drop-route split-horizon; do
  digest "fuzz_break_$breakage" "$fuzz" --break "$breakage"
done
for replay in "$src"/corpus/*.replay; do
  digest "replay_$(basename "$replay" .replay)" "$fuzz" --replay "$replay" \
    --trace trace.json
done
