#!/bin/sh
# Build test/exp_isa.c -- the shared exp, sigmoid and tanh of
# lib/tensor/functs_exp.h -- once as the scalar build (vectorisation
# off, as Scalar.exp runs it) and once per x86-64 level with the flags
# of the strided leaf (lib/exec/dune), and check every build this host
# can run bit for bit against the scalar one: -march=x86-64 (the leaf's
# default clone), x86-64-v3 (its AVX2 clone) and x86-64-v4 (its AVX-512
# clone).  The scalar build also checks exp and tanh against glibc's
# over 10M inputs each (at most 1 and 2 ulp apart).  Nothing is timed.
#
#   sh exp_isa.sh [DIR]    DIR holds exp_isa.c; lib/tensor is DIR/../lib/tensor
#
# dune runtest runs it from _build/default/test.  Skips, saying why, on a
# host that is not x86-64 or has no C compiler; CC overrides cc.
set -eu

dir=${1:-.}
cc=${CC:-cc}

case "$(uname -m)" in
x86_64 | amd64) ;;
*)
  echo "exp_isa: skipped: $(uname -m) is not x86-64"
  exit 0
  ;;
esac
if ! command -v "$cc" >/dev/null 2>&1; then
  echo "exp_isa: skipped: no C compiler ($cc)"
  exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

build() {
  out=$1
  shift
  "$cc" -ffp-contract=off "$@" -I "$dir/../lib/tensor" "$dir/exp_isa.c" \
    -o "$tmp/$out" -lm
}

build exp_isa_scalar -O2 -fno-tree-vectorize
"$tmp/exp_isa_scalar" scalar --write "$tmp/scalar.bin"
build exp_isa_x86-64 -O3 -fno-trapping-math -march=x86-64
"$tmp/exp_isa_x86-64" x86-64 --check "$tmp/scalar.bin"
for level in x86-64-v3 x86-64-v4; do
  if ! echo 'int main(void) { return 0; }' \
    | "$cc" -march="$level" -x c - -o "$tmp/probe" 2>/dev/null; then
    echo "exp_isa $level: skipped: $cc does not accept -march=$level"
  elif ! "$tmp/exp_isa_x86-64" --supports "$level"; then
    echo "exp_isa $level: skipped: this CPU cannot run $level code"
  else
    build "exp_isa_$level" -O3 -fno-trapping-math -march="$level"
    "$tmp/exp_isa_$level" "$level" --check "$tmp/scalar.bin"
  fi
done
