#!/bin/sh
# Pre-PR gate: build everything, run the test suite, and (when available)
# check formatting.  Run from the repository root:
#
#   scripts/check.sh
#
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

# This run's scratch files live in one private directory, removed on
# exit, so concurrent runs never share a path.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== dune build @all =="
dune build @all

# --force: on an unchanged tree dune would otherwise replay cached
# results.  The suites include the JIT's (test_jit, test_forced), which
# compile real kernels when a C compiler is present.
echo "== dune runtest --force =="
dune runtest --force

# Without a C compiler a FUNCTS_JIT=auto run must still exit 0 — every
# group stays per-node — and the metrics snapshot must say so via
# jit.c.fallback.
if ! cc --version >/dev/null 2>&1; then
  echo "== no cc: graceful JIT fallback =="
  FUNCTS_JIT=auto FUNCTS_DOMAINS=2 dune exec bench/main.exe -- exec --smoke \
    | tee "$tmp/functs_jit_fallback.txt"
  grep -Eq 'jit\.c\.fallback +[1-9]' "$tmp/functs_jit_fallback.txt" || {
    echo "error: FUNCTS_JIT=auto without cc recorded no jit.c.fallback" >&2
    exit 1
  }
fi

echo "== bench exec --smoke (FUNCTS_DOMAINS=2) =="
FUNCTS_DOMAINS=2 dune exec bench/main.exe -- exec --smoke \
  | tee "$tmp/functs_bench_smoke.txt"
grep -q "== metrics snapshot ==" "$tmp/functs_bench_smoke.txt" || {
  echo "error: bench smoke output is missing the metrics snapshot" >&2
  exit 1
}
grep -q "exec.kernel_runs" "$tmp/functs_bench_smoke.txt" || {
  echo "error: bench smoke metrics are missing exec.kernel_runs" >&2
  exit 1
}
# Horizontal v2 gates: the per-detection / per-class CV loops must batch
# at 2 domains, on the vectorised plan, and no batched loop may diverge
# bitwise from the sequential engine (the bench prints the workload with
# a DIVERG marker instead of "ok" when the gate trips; tee hides its
# exit code).
for w in yolact fcos; do
  grep -Eq "^ *$w +ok parallel_loops=[1-9]" "$tmp/functs_bench_smoke.txt" || {
    echo "error: $w did not batch any parallel loop at FUNCTS_DOMAINS=2" >&2
    exit 1
  }
  grep -Eq "^ *$w +ok .* vector_loops=[1-9]" "$tmp/functs_bench_smoke.txt" || {
    echo "error: $w ran no vectorised loop at FUNCTS_DOMAINS=2" >&2
    exit 1
  }
done
# Attention's loop has no vectorised plan: it is the registry loop that
# reaches the batched arm.
grep -Eq "^ *attention +ok parallel_loops=[1-9]" "$tmp/functs_bench_smoke.txt" || {
  echo "error: attention did not batch its loop at FUNCTS_DOMAINS=2" >&2
  exit 1
}
if grep -Eq 'DIVERGED|DIVERGENCE' "$tmp/functs_bench_smoke.txt"; then
  echo "error: an engine output diverged (see bench smoke output above)" >&2
  exit 1
fi

# Batching is a loop-plan decision, not a lane-count one: the same loops
# must batch on a single lane, with the same bitwise gate.
echo "== bench exec --smoke (FUNCTS_DOMAINS=1) =="
FUNCTS_DOMAINS=1 dune exec bench/main.exe -- exec --smoke \
  | tee "$tmp/functs_bench_smoke_d1.txt"
for w in yolact fcos; do
  grep -Eq "^ *$w +ok parallel_loops=[1-9]" "$tmp/functs_bench_smoke_d1.txt" || {
    echo "error: $w did not batch any parallel loop at FUNCTS_DOMAINS=1" >&2
    exit 1
  }
  grep -Eq "^ *$w +ok .* vector_loops=[1-9]" "$tmp/functs_bench_smoke_d1.txt" || {
    echo "error: $w ran no vectorised loop at FUNCTS_DOMAINS=1" >&2
    exit 1
  }
done
grep -Eq "^ *attention +ok parallel_loops=[1-9]" "$tmp/functs_bench_smoke_d1.txt" || {
  echo "error: attention did not batch its loop at FUNCTS_DOMAINS=1" >&2
  exit 1
}
if grep -Eq 'DIVERGED|DIVERGENCE' "$tmp/functs_bench_smoke_d1.txt"; then
  echo "error: an engine output diverged at FUNCTS_DOMAINS=1 (see above)" >&2
  exit 1
fi

# The committed benchmark results must carry the JIT column, the pool
# counters, the vectorised-loop count and the per-shape GEMM rows.
echo "== BENCH_exec.json members =="
for member in '"jit_ms"' '"pool_worker_tasks"' '"pool_caller_tasks"' '"cold_jit_ms"' '"jit_isa"' '"vector_loops"' '"gemm"' '"c_temps"' '"c_nests"' '"c_copies"' '"native_loops"' '"create_ms"'; do
  grep -q "$member" BENCH_exec.json || {
    echo "error: BENCH_exec.json is missing the $member member" >&2
    exit 1
  }
done

# Scaling monotonicity: going from 2 to 4 lanes must never cost a
# workload more than 10% — a d4 regression means the pool burns the
# extra lanes on dispatch overhead instead of work.  The gate only means
# something when the results were recorded on a host with at least 4
# cores: it skips, saying why, when BENCH_exec.json's "host" member
# records fewer, and still runs when the file has no "host" member.
echo "== BENCH_exec.json scaling gate (d4 <= 1.1 x d2) =="
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF' || { echo "error: BENCH_exec.json fails the d4-vs-d2 scaling gate" >&2; exit 1; }
import json
d = json.load(open("BENCH_exec.json"))
cores = d.get("host", {}).get("recommended_domain_count", 4)
if cores < 4:
    print(f"  skipped: recorded on a host with recommended_domain_count = {cores} < 4;"
          " d4 vs d2 measures the host there, not the pool")
else:
    bad = [
        (w["name"], w["sweep"]["d2_ms"], w["sweep"]["d4_ms"])
        for w in d["workloads"]
        if w["sweep"]["d4_ms"] > 1.1 * w["sweep"]["d2_ms"]
    ]
    for name, d2, d4 in bad:
        print(f"  {name}: d4 {d4:.3f} ms > 1.1 x d2 {d2:.3f} ms")
    assert not bad
EOF
elif command -v jq >/dev/null 2>&1; then
  cores=$(jq '.host.recommended_domain_count // 4' BENCH_exec.json)
  if [ "$cores" -lt 4 ]; then
    echo "  skipped: recorded on a host with recommended_domain_count = $cores < 4"
  else
    jq -e '[.workloads[] | select(.sweep.d4_ms > 1.1 * .sweep.d2_ms)] == []' \
      BENCH_exec.json >/dev/null || {
      echo "error: BENCH_exec.json fails the d4-vs-d2 scaling gate (jq)" >&2
      exit 1
    }
  fi
else
  echo "warning: neither python3 nor jq available; skipping scaling gate" >&2
fi

# Latency attribution: the profile verb must expose every lifecycle
# stage from the in-process histograms.
echo "== profile --json stage keys (FUNCTS_DOMAINS=2) =="
FUNCTS_DOMAINS=2 dune exec bin/functs.exe -- profile lstm --runs 8 --json \
  > "$tmp/functs_profile.json"
for key in '"queue_wait"' '"batch"' '"exec"' '"total"' '"groups"' '"gc"' '"ops"' '"setup"' '"armed_ms"' '"exec.runs"' '"minor_words"' '"major_words"'; do
  grep -q "$key" "$tmp/functs_profile.json" || {
    echo "error: profile --json is missing the $key key" >&2
    exit 1
  }
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$tmp/functs_profile.json" <<'EOF' || { echo "error: profile JSON stages invalid" >&2; exit 1; }
import json, sys
d = json.load(open(sys.argv[1]))
for s in ("queue_wait", "batch", "exec", "total"):
    st = d["stages"][s]
    assert st["count"] > 0, f"stage {s} observed nothing"
    assert st["p99_us"] >= st["p50_us"] >= 0
assert d["groups"], "no attribution rows"
EOF
fi

# Loop arms are fixed when an engine is prepared, so a session's create
# runs no engine, and serving journals no arm sample or pin expiry.
echo "== create runs no engine; no arm is sampled (yolact, JIT off) =="
FUNCTS_JIT=off dune exec bin/functs.exe -- profile yolact --runs 8 --json \
  > "$tmp/functs_profile_yolact.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$tmp/functs_profile_yolact.json" <<'EOF' || { echo "error: yolact's create ran an engine" >&2; exit 1; }
import json, sys
runs = json.load(open(sys.argv[1]))["setup"]["exec.runs"]
assert runs == 0, f"setup exec.runs = {runs}, expected 0"
EOF
else
  grep -Eq '"exec\.runs": *0[,}]' "$tmp/functs_profile_yolact.json" || {
    echo "error: yolact's create ran an engine" >&2
    exit 1
  }
fi
FUNCTS_JIT=off dune exec bin/functs.exe -- why yolact > "$tmp/functs_why.txt"
grep -q 'scheduler.loop' "$tmp/functs_why.txt" || {
  echo "error: functs why yolact journaled no loop arm" >&2
  exit 1
}
if grep -Eq 'tuner\.(sample|expire)' "$tmp/functs_why.txt"; then
  echo "error: functs why yolact shows an arm sample or a pin expiry" >&2
  exit 1
fi

# The serving benchmark compiles against lib/ and names its public
# records, labels and stats fields, so build it (and run its own unit
# tests) against the working tree: a rename then fails here, not in the
# benchmark run.  Its build tree lives under the git-ignored .perfbench/.
echo "== perfbench self-test and build =="
if command -v python3 >/dev/null 2>&1; then
  python3 perfbench/run.py --self-test
  DUNE_CACHE=disabled dune build --root .perfbench/build ./perfbench/main.exe
else
  echo "warning: python3 unavailable; skipping the perfbench build" >&2
fi

# The bench differ must call two identical result files a clean diff.
echo "== bench_diff self-compare =="
if command -v python3 >/dev/null 2>&1; then
  scripts/bench_diff BENCH_exec.json BENCH_exec.json || {
    echo "error: bench_diff reports regressions on identical inputs" >&2
    exit 1
  }
else
  echo "warning: python3 unavailable; skipping bench_diff self-compare" >&2
fi

# Always-on attribution budget: leaving the decision journal enabled may
# cost fused lstm at most 2%.
echo "== obs overhead budget (attribution <= 2%) =="
dune exec bench/obs_overhead.exe | tee "$tmp/functs_obs_overhead.txt"
overhead=$(sed -n 's/^attribution overhead: \(-\{0,1\}[0-9.]*\)%.*/\1/p' \
  "$tmp/functs_obs_overhead.txt")
test -n "$overhead" || {
  echo "error: obs_overhead printed no attribution overhead line" >&2
  exit 1
}
awk "BEGIN { exit !($overhead <= 2.0) }" || {
  echo "error: attribution overhead $overhead% exceeds the 2% budget" >&2
  exit 1
}

# Config.of_env is the only sanctioned reader of the FUNCTS_* environment;
# everything else must take the typed config explicitly.
echo "== config gate: no FUNCTS_* env reads outside Config.of_env =="
violations=$(grep -rn 'Sys\.getenv' \
  --include='*.ml' --include='*.mli' lib bin bench examples \
  | grep -v '^lib/serve/config\.ml:' \
  | grep -v '^lib/serve/config\.mli:' || true)
if [ -n "$violations" ]; then
  echo "error: environment reads outside lib/serve/config.ml:" >&2
  echo "$violations" >&2
  exit 1
fi

# With the JIT off every kernel.launch event is a per-node group launch;
# each must still name its group's backend (on the span's opening event).
echo "== trace smoke (run lstm --engine=exec --trace, JIT off) =="
FUNCTS_JIT=off dune exec bin/functs.exe -- run lstm --engine=exec --trace "$tmp/functs_trace.json"
test -s "$tmp/functs_trace.json" || {
  echo "error: --trace wrote no trace file" >&2
  exit 1
}
# Validate the Chrome trace JSON with whatever parser is on hand.
if command -v jq >/dev/null 2>&1; then
  jq -e '.traceEvents | length > 0' "$tmp/functs_trace.json" >/dev/null || {
    echo "error: trace JSON invalid or empty (jq)" >&2
    exit 1
  }
elif command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); sys.exit(0 if d["traceEvents"] else 1)' "$tmp/functs_trace.json" || {
    echo "error: trace JSON invalid or empty (python3)" >&2
    exit 1
  }
else
  echo "warning: neither jq nor python3 available; skipping trace JSON validation" >&2
fi
grep -q '"kernel.launch"' "$tmp/functs_trace.json" || {
  echo "error: trace is missing kernel.launch events" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 - "$tmp/functs_trace.json" <<'EOF' || { echo "error: a kernel.launch event has no backend arg" >&2; exit 1; }
import json, sys
d = json.load(open(sys.argv[1]))
begins = [e for e in d["traceEvents"]
          if e.get("name") == "kernel.launch" and e.get("ph") == "B"]
assert begins and all("backend" in e.get("args", {}) for e in begins)
EOF
else
  echo "warning: python3 unavailable; skipping the kernel.launch backend check" >&2
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "warning: ocamlformat not installed; skipping format check" >&2
fi

echo "All checks passed."
