#!/usr/bin/env bash
# Verify the parallel runtime's determinism contract (docs/PARALLELISM.md,
# docs/OBSERVABILITY.md): the same bench run at CND_THREADS=1 and
# CND_THREADS=4 must produce byte-identical CSV output — with telemetry off
# AND with --metrics-out enabled. Metrics are a write-only side channel:
# turning them on must not perturb a single result byte.
#
# Usage: tools/check_determinism.sh [bench-binary] [bench-args...]
#   bench-binary  defaults to ${BUILD_DIR:-build}/bench/bench_multiseed
#   bench-args    default to --scale=0.1
#
# Legs, all on by default:
#   bench      the bench above at 1 vs 4 lanes, telemetry off and on.
#   kernels    bench_micro_substrate --dump-kernels writes fixed-seed outputs
#              of every register-blocked kernel (ivf_knn included); the CSVs
#              must be byte-identical at CND_THREADS=1 vs 4, and every name
#              in KERNELS below must appear in them.
#   serving    cnd gen -> cnd pack -> cnd serve --out replays one flow file
#              through the sharded scoring service with adaptation rounds
#              mid-stream; the per-flow verdict files must be byte-identical
#              at 1 vs 4 shards — a batch's scores depend only on its
#              admission index, never on worker timing (docs/SERVING.md) —
#              and at 2 shards with a 1-lane vs 4-lane thread pool.
#   static     cnd_analyze's determinism-taint rule proves that no output
#              root reaches a nondeterminism source. Skipped, with a note,
#              when the analyzer binary or compile_commands.json is not in
#              BUILD_DIR.
#
# Environment:
#   BUILD_DIR       Release build directory (default: build)
#   TSAN_BUILD_DIR  optional: a -DCND_TSAN=ON build directory. The bench,
#                   kernel and serving legs also run that tree's binaries
#                   (4 lanes, 4 shards) and diff them against the Release
#                   run — ThreadSanitizer instrumentation must not change a
#                   single result byte.
#   FULL_REGISTRY=1 optional: additionally run the benches that together
#                   exercise every detector in core::make_detector's registry
#                   (extended_nd + fig3 + a tiny scenario grid) at a small
#                   scale and verify each name in DETECTORS below appears in
#                   their CSV output.
#
# Exit 0 when every comparison matches and the metrics JSONL is well-formed,
# 1 otherwise.
set -euo pipefail

# Every registered detector name in core::make_detector (detector_factory.cpp).
# cnd_analyze's registry-coverage rule fails the tree scan if a detector is
# added to the factory without being listed here, so this script can never
# silently fall behind the registry.
DETECTORS=(
  "CND-IDS"
  "Adaptive"
  "ADCN"
  "LwF"
  "PCA"
  "DIF"
  "GMM"
  "Maha"
  "kNN"
  "HBOS"
  "AE"
  "LOF"
  "OC-SVM"
)

# Every kernel case bench_micro_substrate --dump-kernels emits. cnd_analyze's
# registry-coverage rule cross-checks this list against the bench source, so
# a new kernel case cannot ship without the sweep below covering it.
KERNELS=(
  "matmul"
  "matmul_bt"
  "matmul_at"
  "pairwise_dist"
  "knn"
  "ivf_knn"
)

BUILD_DIR=${BUILD_DIR:-build}
BENCH=${1:-${BUILD_DIR}/bench/bench_multiseed}
shift || true
if [ "$#" -gt 0 ]; then ARGS=("$@"); else ARGS=(--scale=0.1); fi

if [ ! -x "${BENCH}" ]; then
  echo "check_determinism: bench binary '${BENCH}' not found or not executable" >&2
  echo "  (build first: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
  exit 1
fi
BENCH=$(readlink -f "${BENCH}")

WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT
status=0

# same FILE_A FILE_B WHAT WHERE: print OK when the two files are
# byte-identical; otherwise print FAIL with the head of their diff and
# record the failure.
same() {
  if cmp -s "$1" "$2"; then
    echo "OK   $3 identical between $4"
  else
    echo "FAIL $3 differs between $4"
    diff "$1" "$2" | head -10 || true
    status=1
  fi
}

# tsan_twin BINARY: set TWIN to the TSan tree's copy of a Release-tree
# binary. Returns 1, recording a FAIL, when that copy is missing.
tsan_twin() {
  local rel
  rel=$(realpath --relative-to="$(readlink -f "${BUILD_DIR}")" "$1")
  TWIN="${TSAN_BUILD_DIR}/${rel}"
  if [ ! -x "${TWIN}" ]; then
    echo "FAIL TSAN_BUILD_DIR set but '${TWIN}' is missing"
    echo "  (build first: cmake -B ${TSAN_BUILD_DIR} -S . -DCND_TSAN=ON && cmake --build ${TSAN_BUILD_DIR} -j)"
    status=1
    return 1
  fi
  TWIN=$(readlink -f "${TWIN}")
}

# release_bin NAME PATH: set BIN to the absolute path of a Release-tree
# binary. Returns 1, recording a FAIL, when it is missing.
release_bin() {
  if [ ! -x "$2" ]; then
    echo "FAIL $1 leg: '$2' is missing"
    status=1
    return 1
  fi
  BIN=$(readlink -f "$2")
}

# run_at DIR LANES BINARY ARGS...: run BINARY in DIR (created if need be)
# at CND_THREADS=LANES, with its stdout and stderr in DIR/stdout.log. A
# nonzero exit prints FAIL with the tail of the log and records the failure.
run_at() {
  local dir=$1 lanes=$2 rc=0
  shift 2
  mkdir -p "${dir}"
  echo "== CND_THREADS=${lanes} $(basename "$1") ${*:2}"
  (cd "${dir}" && CND_THREADS=${lanes} "$@" > stdout.log 2>&1) || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "FAIL $(basename "$1") exited with status ${rc}:"
    tail -5 "${dir}/stdout.log"
    status=1
  fi
}

# ---- bench leg: plain runs, then with the observability pipeline on ------
run_at "${WORK}/t1" 1 "${BENCH}" "${ARGS[@]}"
run_at "${WORK}/t4" 4 "${BENCH}" "${ARGS[@]}"
run_at "${WORK}/t1m" 1 "${BENCH}" "${ARGS[@]}" --metrics-out=metrics.jsonl
run_at "${WORK}/t4m" 4 "${BENCH}" "${ARGS[@]}" --metrics-out=metrics.jsonl

shopt -s nullglob
csvs=("${WORK}"/t1/*.csv)
if [ "${#csvs[@]}" -eq 0 ]; then
  echo "check_determinism: bench wrote no CSV files — nothing to compare" >&2
  exit 1
fi

for f in "${csvs[@]}"; do
  name=$(basename "${f}")
  for dir in t4 t1m t4m; do
    same "${f}" "${WORK}/${dir}/${name}" "${name}" "t1 and ${dir}"
  done
done

# A ThreadSanitizer build must reproduce the Release CSVs byte-for-byte.
# TSan adds instrumentation and scheduling noise but never changes IEEE
# arithmetic, so any diff here is a real data race or order dependence that
# the in-build comparison above could have masked.
if [ -n "${TSAN_BUILD_DIR:-}" ] && tsan_twin "${BENCH}"; then
  run_at "${WORK}/tsan" 4 "${TWIN}" "${ARGS[@]}"
  for f in "${csvs[@]}"; do
    name=$(basename "${f}")
    same "${f}" "${WORK}/tsan/${name}" "${name}" "Release t1 and TSan t4"
  done
fi

# The metrics stream itself: non-empty, one JSON object per line, and a
# closing metrics_snapshot record from the atexit hook.
for dir in t1m t4m; do
  mfile="${WORK}/${dir}/metrics.jsonl"
  if [ ! -s "${mfile}" ]; then
    echo "FAIL ${dir}/metrics.jsonl missing or empty"
    status=1
  elif grep -qvE '^\{.*\}$' "${mfile}"; then
    echo "FAIL ${dir}/metrics.jsonl has non-JSON-object lines:"
    grep -vE '^\{.*\}$' "${mfile}" | head -3
    status=1
  elif ! grep -q '"event":"metrics_snapshot"' "${mfile}"; then
    echo "FAIL ${dir}/metrics.jsonl lacks the closing metrics_snapshot record"
    status=1
  else
    echo "OK   ${dir}/metrics.jsonl well-formed ($(wc -l < "${mfile}") lines)"
  fi
done

# ---- kernels leg: the accumulation-order contract end to end -------------
if release_bin kernels "${BUILD_DIR}/bench/bench_micro_substrate"; then
  run_at "${WORK}/k1" 1 "${BIN}" --dump-kernels=kernels.csv
  run_at "${WORK}/k4" 4 "${BIN}" --dump-kernels=kernels.csv
  same "${WORK}/k1/kernels.csv" "${WORK}/k4/kernels.csv" kernels.csv \
      "CND_THREADS=1 and 4"
  for kernel in "${KERNELS[@]}"; do
    if grep -q "^${kernel}," "${WORK}/k1/kernels.csv"; then
      echo "OK   kernel case '${kernel}' present in sweep"
    else
      echo "FAIL kernel case '${kernel}' absent from kernels.csv"
      status=1
    fi
  done
  if [ -n "${TSAN_BUILD_DIR:-}" ] && tsan_twin "${BIN}"; then
    run_at "${WORK}/ktsan" 4 "${TWIN}" --dump-kernels=kernels.csv
    same "${WORK}/k1/kernels.csv" "${WORK}/ktsan/kernels.csv" kernels.csv \
        "Release t1 and TSan t4"
  fi
fi

# ---- serving leg: verdicts independent of shard and lane counts ----------
# 2000 flows in 128-flow batches with a round every 600 flows: three
# adaptation rounds, whose replica swaps land while the 4-batch queue is
# under load.
SERVE=(serve --flows=../serving/flows.bin --clean=../serving/flows.csv
       --batch=128 --queue=4 --adapt-every=600 --epochs=2 --out=verdicts.txt)
if release_bin serving "${BUILD_DIR}/tools/cnd"; then
  run_at "${WORK}/serving" 1 "${BIN}" gen --dataset=unsw_nb15 --scale=0.2 \
      --seed=7 --out=flows.csv
  run_at "${WORK}/serving" 1 "${BIN}" pack --data=flows.csv --out=flows.bin
  run_at "${WORK}/s1" 4 "${BIN}" "${SERVE[@]}" --shards=1
  run_at "${WORK}/s4" 4 "${BIN}" "${SERVE[@]}" --shards=4
  run_at "${WORK}/l1" 1 "${BIN}" "${SERVE[@]}" --shards=2
  run_at "${WORK}/l4" 4 "${BIN}" "${SERVE[@]}" --shards=2
  rounds=$(awk '$1 == "adaptations" { print $2 }' "${WORK}/s1/stdout.log")
  if [ "${rounds:-0}" -ge 2 ]; then
    echo "OK   serving stream ran ${rounds} adaptation rounds"
  else
    echo "FAIL serving stream ran ${rounds:-no} adaptation rounds (want >= 2)"
    status=1
  fi
  same "${WORK}/s1/verdicts.txt" "${WORK}/s4/verdicts.txt" verdicts.txt \
      "1 and 4 shards"
  same "${WORK}/l1/verdicts.txt" "${WORK}/l4/verdicts.txt" verdicts.txt \
      "1 and 4 lanes at 2 shards"
  same "${WORK}/s1/verdicts.txt" "${WORK}/l1/verdicts.txt" verdicts.txt \
      "1 shard x 4 lanes and 2 shards x 1 lane"
  if [ -n "${TSAN_BUILD_DIR:-}" ] && tsan_twin "${BIN}"; then
    run_at "${WORK}/stsan" 4 "${TWIN}" "${SERVE[@]}" --shards=4
    same "${WORK}/s1/verdicts.txt" "${WORK}/stsan/verdicts.txt" \
        verdicts.txt "Release 1-shard and TSan 4-shard"
  fi
fi

# Optional full-registry sweep: bench_extended_nd + bench_fig3_cl_comparison
# + a tiny bench_scenarios grid together exercise all thirteen registered
# detectors; verify every name in DETECTORS shows up in their CSV output so
# no registry entry goes untested.
if [ "${FULL_REGISTRY:-0}" = "1" ]; then
  for bin in bench_extended_nd bench_fig3_cl_comparison; do
    if release_bin FULL_REGISTRY "${BUILD_DIR}/bench/${bin}"; then
      run_at "${WORK}/reg/${bin}" 4 "${BIN}" --scale=0.05
    fi
  done
  # bench_scenarios carries the drift-gated Adaptive detector, which no
  # fixed-protocol bench runs; one scenario at a tiny scale keeps it cheap.
  if release_bin FULL_REGISTRY "${BUILD_DIR}/bench/bench_scenarios"; then
    run_at "${WORK}/reg/bench_scenarios" 4 "${BIN}" --scale=0.05 \
        --scenarios=class-incremental --detectors=CND-IDS,Adaptive
  fi
  for det in "${DETECTORS[@]}"; do
    if grep -qF "${det}" "${WORK}"/reg/*/*.csv "${WORK}"/reg/*/stdout.log 2> /dev/null; then
      echo "OK   registry detector '${det}' exercised"
    else
      echo "FAIL registry detector '${det}' absent from full-registry run"
      status=1
    fi
  done
fi

# ---- static leg: the byte diffs above sample; the determinism-taint
# reachability scan proves. A graceful skip keeps bench-only invocations
# (custom BUILD_DIR without the tools targets) working.
ROOT_DIR=$(cd "$(dirname "$0")/.." && pwd)
ANALYZE="${BUILD_DIR}/tools/cnd_analyze"
CDB="${BUILD_DIR}/compile_commands.json"
if [ ! -x "${ANALYZE}" ] || [ ! -f "${CDB}" ]; then
  echo "SKIP static determinism-taint scan ('${ANALYZE}' or '${CDB}' missing)"
else
  echo "== cnd_analyze --rule=determinism-taint --json"
  summary=$("${ANALYZE}" --compile-commands "${CDB}" --root "${ROOT_DIR}" \
      --rule=determinism-taint --json 2> /dev/null | tail -1) || true
  case "${summary}" in
    *'"findings":0,'*)
      echo "OK   static determinism-taint scan clean: ${summary}"
      ;;
    *)
      echo "FAIL static determinism-taint scan: ${summary:-analyzer produced no summary}"
      status=1
      ;;
  esac
fi

exit ${status}
