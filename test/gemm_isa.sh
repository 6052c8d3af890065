#!/bin/sh
# Build test/gemm_isa.c -- the GEMM kernel and its bitwise check against a
# naive fma triple loop -- once per x86-64 level, and run every build this
# host can execute: -march=x86-64 (the library's default clone),
# x86-64-v3 (its AVX2 clone) and x86-64-v4 (its AVX-512 clone).  It
# checks correctness only; nothing is timed.
#
#   sh gemm_isa.sh [DIR]    DIR holds gemm_isa.c; lib/exec is DIR/../lib/exec
#
# dune runtest runs it from _build/default/test.  Skips, saying why, on a
# host that is not x86-64 or has no C compiler; CC overrides cc.
set -eu

dir=${1:-.}
cc=${CC:-cc}

case "$(uname -m)" in
x86_64 | amd64) ;;
*)
  echo "gemm_isa: skipped: $(uname -m) is not x86-64"
  exit 0
  ;;
esac
if ! command -v "$cc" >/dev/null 2>&1; then
  echo "gemm_isa: skipped: no C compiler ($cc)"
  exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

build() {
  "$cc" -O3 -ffp-contract=off -march="$1" -I "$dir/../lib/exec" \
    "$dir/gemm_isa.c" -o "$tmp/gemm_isa_$1" -lm
}

build x86-64
"$tmp/gemm_isa_x86-64" x86-64
for level in x86-64-v3 x86-64-v4; do
  if ! echo 'int main(void) { return 0; }' \
    | "$cc" -march="$level" -x c - -o "$tmp/probe" 2>/dev/null; then
    echo "gemm_isa $level: skipped: $cc does not accept -march=$level"
  elif ! "$tmp/gemm_isa_x86-64" --supports "$level"; then
    echo "gemm_isa $level: skipped: this CPU cannot run $level code"
  else
    build "$level"
    "$tmp/gemm_isa_$level" "$level"
  fi
done
