#!/usr/bin/env bash
# never_linked.sh — fail when src/ defines a function that no shipped
# binary links.
#
#   tools/never_linked.sh [build-dir]     (default: ./build-never-linked)
#
# Builds every production binary at -O0 with one section per function
# and links it with --gc-sections, so each binary keeps exactly the
# functions reachable from its main (code that runs only in forked
# children included):
#   - rv_batch, rv_serve, bench_diff, the bench_* reports, bench_micro
#     and the examples, from the top-level CMakeLists.txt with tests off;
#   - rv_perfbench, from perfbench/CMakeLists.txt as it stands.
# Every out-of-line rv:: function whose definition (DWARF line info,
# `nm -l`) is in a src/**/*.cpp file must be in at least one of them,
# or be named in tools/never_linked.allow with a reason. An allowlist
# entry that no never-linked function matches is an error too, so the
# list cannot go stale.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$PWD/build-never-linked}
mkdir -p "$out"
out=$(cd "$out" && pwd)
allow="$root/tools/never_linked.allow"
jobs=$(nproc)

config=(-DCMAKE_BUILD_TYPE=Debug
        "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
cmake -S "$root" -B "$out/main" "${config[@]}" -DRV_BUILD_TESTS=OFF > "$out/main.log"
cmake --build "$out/main" --parallel "$jobs" >> "$out/main.log"
cmake -S "$root/perfbench" -B "$out/perfbench" "${config[@]}" > "$out/perfbench.log"
cmake --build "$out/perfbench" --parallel "$jobs" >> "$out/perfbench.log"

if [[ ! -x "$out/main/bench_micro" ]]; then
  echo "never_linked: bench_micro was not built (google-benchmark missing)," \
       "so the functions only it links would read as dead" >&2
  exit 2
fi

# Every executable in the flat build root is a production binary once
# tests are off; rv_lint links no rv_core and adds nothing.
binaries=("$out/perfbench/rv_perfbench")
while IFS= read -r bin; do binaries+=("$bin"); done \
  < <(find "$out/main" -maxdepth 1 -type f -perm -u+x | sort)

# "name<TAB>file:line" for each rv:: function defined in a src/ .cpp.
nm -C -l --defined-only "$out/main/librv_core.a" \
  | awk -F'\t' -v src="$root/src/" '
      $2 ~ /\.cpp:[0-9]+$/ && index($2, src) == 1 {
        name = substr($1, 20)
        type = substr($1, 18, 1)
        if (type ~ /[TtWw]/ && index(name, "rv::") == 1)
          print name "\t" substr($2, length(src) + 1)
      }' | sort -u > "$out/defined.tsv"

for bin in "${binaries[@]}"; do
  nm -C --defined-only "$bin" | awk '$2 ~ /^[TtWw]$/' | cut -c20-
done | sort -u > "$out/linked.txt"

cut -f1 "$out/defined.tsv" | sort -u | comm -23 - "$out/linked.txt" > "$out/unlinked.txt"

# Allowlist lines: "<qualified name>  # <reason>"; the name matches a
# function's demangled name up to its parameter list, ABI tags dropped
# (so a lambda inside an allowlisted function is covered by it).
key() { sed -e 's/\[abi:[^]]*\]//g' -e 's/(.*//'; }
status=0
grep -v '^\s*\(#\|$\)' "$allow" > "$out/allow.txt" || true
if grep -v ' # .*[^[:space:]]' "$out/allow.txt"; then
  echo "never_linked: the allowlist lines above give no reason" >&2
  status=1
fi
sed 's/\s*#.*//' "$out/allow.txt" | sort -u > "$out/allowed.txt"

unexplained=0
while IFS= read -r fn; do
  if ! key <<< "$fn" | grep -qxFf - "$out/allowed.txt"; then
    where=$(awk -F'\t' -v fn="$fn" '$1 == fn { print $2; exit }' "$out/defined.tsv")
    echo "never linked: $fn  ($where)"
    unexplained=$((unexplained + 1))
  fi
done < "$out/unlinked.txt"

while IFS= read -r entry; do
  if ! key < "$out/unlinked.txt" | grep -qxF "$entry"; then
    echo "never_linked: stale allowlist entry '$entry' (linked, or not defined in src/)" >&2
    status=1
  fi
done < "$out/allowed.txt"

defined=$(cut -f1 "$out/defined.tsv" | sort -u | wc -l)
echo "never_linked: $defined rv:: functions defined in src/*.cpp," \
     "$(wc -l < "$out/unlinked.txt") in no production binary," \
     "$unexplained of them not allowlisted (${#binaries[@]} binaries)"
if ((unexplained > 0)); then status=1; fi
exit "$status"
