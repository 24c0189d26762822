#!/usr/bin/env bash
# Lists every endbox:: function that src/ defines and that no binary
# links, and exits 1 if there is one.
#
# It builds the root project (every test, bench and example) and
# bench/e2e in a build directory of its own, at -O0 so nothing is
# inlined away, with -ffunction-sections and --gc-sections so each
# binary keeps only the functions it reaches. A function that
# libendbox_core.a defines out of line (nm type T or W) and that no
# binary keeps is unlinked. Lambdas and template instantiations are
# skipped: they exist only where something instantiates them.
#
# Usage: scripts/unlinked_functions.sh [build-dir]   (default: build-audit)
# bench_micro needs google-benchmark (libbenchmark-dev); the audit fails
# when it, or any other binary, was not built.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
dir=$(realpath -m "${1:-$root/build-audit}")
jobs=$(nproc)
flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections -DENDBOX_WERROR=OFF)

mkdir -p "$dir"
echo "building the root project and bench/e2e in $dir (-O0, --gc-sections)" >&2
cmake -S "$root" -B "$dir/main" "${flags[@]}" > "$dir/configure.log" 2>&1 ||
  { cat "$dir/configure.log" >&2; exit 2; }
cmake --build "$dir/main" -j "$jobs" > "$dir/build.log" 2>&1 ||
  { tail -40 "$dir/build.log" >&2; exit 2; }
cmake -S "$root/bench/e2e" -B "$dir/e2e" "${flags[@]}" >> "$dir/configure.log" 2>&1 ||
  { cat "$dir/configure.log" >&2; exit 2; }
cmake --build "$dir/e2e" -j "$jobs" >> "$dir/build.log" 2>&1 ||
  { tail -40 "$dir/build.log" >&2; exit 2; }

binaries=("$dir/e2e/bench_e2e")
for src in "$root"/tests/*.cpp "$root"/bench/*.cpp; do
  binaries+=("$dir/main/$(basename "$src" .cpp)")
done
for src in "$root"/examples/*.cpp; do
  binaries+=("$dir/main/example_$(basename "$src" .cpp)")
done
missing=0
for bin in "${binaries[@]}"; do
  if [[ ! -x $bin ]]; then
    echo "missing binary: $bin" >&2
    missing=1
  fi
done
((missing == 0)) || exit 2

# Demangled endbox:: functions whose nm type matches $1 in files $2...
functions() {
  local types=$1
  shift
  nm -C --defined-only "$@" 2>/dev/null |
    sed -nE "s/^[0-9a-f]+ [$types] (endbox::.*)$/\\1/p" |
    awk '/\{lambda/ { next }
         { head = $0; sub(/\(.*/, "", head)
           gsub(/operator(<=>|<<=|<<|<=|<)/, "", head)
           if (head !~ /</) print }' |
    sort -u
}

unlinked=$(comm -23 <(functions TW "$dir/main/libendbox_core.a") \
                    <(functions TtWw "${binaries[@]}"))
if [[ -n $unlinked ]]; then
  echo "$unlinked"
  echo "$(wc -l <<< "$unlinked") endbox:: functions that no binary links" >&2
  exit 1
fi
echo "every endbox:: function in libendbox_core.a is linked by some binary" >&2
