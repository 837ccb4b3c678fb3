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
# Environment:
#   BUILD_DIR       Release build directory (default: build)
#   TSAN_BUILD_DIR  optional: a -DCND_TSAN=ON build directory. The same bench
#                   binary from that tree is run at CND_THREADS=4 and its CSVs
#                   are diffed against the Release run — ThreadSanitizer
#                   instrumentation must not change a single result byte.
#   FULL_REGISTRY=1 optional: additionally run the benches that together
#                   exercise every detector in core::make_detector's registry
#                   (extended_nd + fig3 + a tiny scenario grid) at a small
#                   scale and verify each name in DETECTORS below appears in
#                   their CSV output.
#   KERNEL_SWEEP=0  opt out of the blocked-kernel sweep (on by default):
#                   bench_micro_substrate --dump-kernels writes fixed-seed
#                   outputs of every register-blocked kernel; the CSVs must
#                   be byte-identical at CND_THREADS=1 vs 4 (and in the TSan
#                   tree when TSAN_BUILD_DIR is set), and every name in
#                   KERNELS below must appear in them.
#   ANN_SWEEP=0     opt out of the ANN sweep (on by default): bench_ann
#                   --dump-ann first verifies in process that the
#                   NeighborProvider's exact mode reproduces brute-force
#                   linalg::knn and the pre-provider LOF / kNN-detector
#                   scores byte-for-byte, then writes exact-mode scores and
#                   IVF (nprobe>0) neighbours/scores to a CSV; the dump must
#                   be byte-identical at CND_THREADS=1 vs 4 (ANN answers are
#                   approximate, never nondeterministic — docs/ANN.md), and
#                   in the TSan tree when TSAN_BUILD_DIR is set.
#   SERVING_SWEEP=0 opt out of the serving sweep (on by default):
#                   bench_serving --dump-scores replays the same flow stream
#                   through the sharded scoring service at 1 and 4 shards
#                   with mid-stream hot-swap adaptation; the per-flow score
#                   dumps must be byte-identical — a batch's scores depend
#                   only on its admission index, never on worker timing
#                   (docs/SERVING.md) — and likewise at a fixed shard count
#                   with a 1-lane vs 4-lane thread pool (CND_THREADS), the
#                   orthogonal parallelism axis inside each shard. With
#                   TSAN_BUILD_DIR set the TSan tree's 4-shard dump must
#                   match too.
#   STATIC_SWEEP=0  opt out of the static determinism proof (on by default):
#                   cnd_analyze's determinism-taint rule is the
#                   compile-time-adjacent counterpart of the byte diffs
#                   above — no output root may reach a nondeterminism
#                   source. Consumes the analyzer's --json one-line summary;
#                   skips gracefully (with a note) when the analyzer binary
#                   or compile_commands.json is not in BUILD_DIR.
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

run_bench_at() {
  local bin=$1 threads=$2 dir=$3
  shift 3
  mkdir -p "${dir}"
  echo "== CND_THREADS=${threads} $(basename "${bin}") ${ARGS[*]} $*"
  (cd "${dir}" && CND_THREADS=${threads} "${bin}" "${ARGS[@]}" "$@" > stdout.log)
}

run_at() {
  local threads=$1 dir=$2
  shift 2
  run_bench_at "${BENCH}" "${threads}" "${dir}" "$@"
}

# Plain runs, then runs with the observability pipeline fully enabled.
run_at 1 "${WORK}/t1"
run_at 4 "${WORK}/t4"
run_at 1 "${WORK}/t1m" --metrics-out=metrics.jsonl
run_at 4 "${WORK}/t4m" --metrics-out=metrics.jsonl

shopt -s nullglob
csvs=("${WORK}"/t1/*.csv)
if [ "${#csvs[@]}" -eq 0 ]; then
  echo "check_determinism: bench wrote no CSV files — nothing to compare" >&2
  exit 1
fi

status=0
for f in "${csvs[@]}"; do
  name=$(basename "${f}")
  for dir in t4 t1m t4m; do
    if diff -q "${WORK}/t1/${name}" "${WORK}/${dir}/${name}" > /dev/null; then
      echo "OK   ${name} identical between t1 and ${dir}"
    else
      echo "FAIL ${name} differs between t1 and ${dir}"
      diff "${WORK}/t1/${name}" "${WORK}/${dir}/${name}" | head -10 || true
      status=1
    fi
  done
done

# Optional cross-build check: a ThreadSanitizer build must reproduce the
# Release CSVs byte-for-byte. TSan adds instrumentation and scheduling noise
# but never changes IEEE arithmetic, so any diff here is a real data race or
# order dependence that the in-build comparison above could have masked.
if [ -n "${TSAN_BUILD_DIR:-}" ]; then
  rel=$(realpath --relative-to="$(readlink -f "${BUILD_DIR}")" "${BENCH}")
  TSAN_BENCH="${TSAN_BUILD_DIR}/${rel}"
  if [ ! -x "${TSAN_BENCH}" ]; then
    echo "FAIL TSAN_BUILD_DIR set but '${TSAN_BENCH}' is missing" >&2
    echo "  (build first: cmake -B ${TSAN_BUILD_DIR} -S . -DCND_TSAN=ON && cmake --build ${TSAN_BUILD_DIR} -j)" >&2
    status=1
  else
    run_bench_at "$(readlink -f "${TSAN_BENCH}")" 4 "${WORK}/tsan"
    for f in "${csvs[@]}"; do
      name=$(basename "${f}")
      if diff -q "${WORK}/t1/${name}" "${WORK}/tsan/${name}" > /dev/null; then
        echo "OK   ${name} identical between Release t1 and TSan t4"
      else
        echo "FAIL ${name} differs between Release t1 and TSan t4"
        diff "${WORK}/t1/${name}" "${WORK}/tsan/${name}" | head -10 || true
        status=1
      fi
    done
  fi
fi

# The metrics stream itself: non-empty, one JSON object per line, and a
# closing metrics_snapshot record from the atexit hook.
for dir in t1m t4m; do
  mfile="${WORK}/${dir}/metrics.jsonl"
  if [ ! -s "${mfile}" ]; then
    echo "FAIL ${dir}/metrics.jsonl missing or empty"
    status=1
    continue
  fi
  if grep -qvE '^\{.*\}$' "${mfile}"; then
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

# Blocked-kernel sweep (on by default; KERNEL_SWEEP=0 opts out): fixed-seed
# outputs of every register-blocked kernel, byte-compared between
# CND_THREADS=1 and 4 — the accumulation-order contract end to end. When
# TSAN_BUILD_DIR is set the TSan tree's dump must match too.
if [ "${KERNEL_SWEEP:-1}" = "1" ]; then
  MICRO="${BUILD_DIR}/bench/bench_micro_substrate"
  if [ ! -x "${MICRO}" ]; then
    echo "FAIL kernel sweep: '${MICRO}' is missing (KERNEL_SWEEP=0 to skip)"
    status=1
  else
    micro=$(readlink -f "${MICRO}")
    for t in 1 4; do
      mkdir -p "${WORK}/k${t}"
      echo "== CND_THREADS=${t} $(basename "${micro}") --dump-kernels=kernels.csv"
      (cd "${WORK}/k${t}" && CND_THREADS=${t} "${micro}" --dump-kernels=kernels.csv)
    done
    if diff -q "${WORK}/k1/kernels.csv" "${WORK}/k4/kernels.csv" > /dev/null; then
      echo "OK   kernels.csv identical between CND_THREADS=1 and 4"
    else
      echo "FAIL kernels.csv differs between CND_THREADS=1 and 4"
      diff "${WORK}/k1/kernels.csv" "${WORK}/k4/kernels.csv" | head -10 || true
      status=1
    fi
    for kernel in "${KERNELS[@]}"; do
      if grep -q "^${kernel}," "${WORK}/k1/kernels.csv"; then
        echo "OK   kernel case '${kernel}' present in sweep"
      else
        echo "FAIL kernel case '${kernel}' absent from kernels.csv"
        status=1
      fi
    done
    if [ -n "${TSAN_BUILD_DIR:-}" ]; then
      TSAN_MICRO="${TSAN_BUILD_DIR}/bench/bench_micro_substrate"
      if [ ! -x "${TSAN_MICRO}" ]; then
        echo "FAIL kernel sweep: TSAN_BUILD_DIR set but '${TSAN_MICRO}' is missing"
        status=1
      else
        tsan_micro=$(readlink -f "${TSAN_MICRO}")
        mkdir -p "${WORK}/ktsan"
        echo "== CND_THREADS=4 (TSan) $(basename "${tsan_micro}") --dump-kernels=kernels.csv"
        (cd "${WORK}/ktsan" && CND_THREADS=4 "${tsan_micro}" --dump-kernels=kernels.csv)
        if diff -q "${WORK}/k1/kernels.csv" "${WORK}/ktsan/kernels.csv" > /dev/null; then
          echo "OK   kernels.csv identical between Release t1 and TSan t4"
        else
          echo "FAIL kernels.csv differs between Release t1 and TSan t4"
          diff "${WORK}/k1/kernels.csv" "${WORK}/ktsan/kernels.csv" | head -10 || true
          status=1
        fi
      fi
    fi
  fi
fi

# ANN sweep (on by default; ANN_SWEEP=0 opts out): bench_ann --dump-ann
# checks the exact-fallback contract in process (provider exact mode ==
# brute force == pre-provider detector scoring, byte for byte) and dumps
# exact scores plus IVF neighbours/scores; the dump is then byte-compared
# between CND_THREADS=1 and 4 — approximate answers still follow the
# determinism contract — and against the TSan tree when available.
if [ "${ANN_SWEEP:-1}" = "1" ]; then
  ANN="${BUILD_DIR}/bench/bench_ann"
  if [ ! -x "${ANN}" ]; then
    echo "FAIL ann sweep: '${ANN}' is missing (ANN_SWEEP=0 to skip)"
    status=1
  else
    ann=$(readlink -f "${ANN}")
    for t in 1 4; do
      mkdir -p "${WORK}/a${t}"
      echo "== CND_THREADS=${t} $(basename "${ann}") --dump-ann=ann.csv"
      (cd "${WORK}/a${t}" && CND_THREADS=${t} "${ann}" --dump-ann=ann.csv > stdout.log)
    done
    if diff -q "${WORK}/a1/ann.csv" "${WORK}/a4/ann.csv" > /dev/null; then
      echo "OK   ann.csv identical between CND_THREADS=1 and 4"
    else
      echo "FAIL ann.csv differs between CND_THREADS=1 and 4"
      diff "${WORK}/a1/ann.csv" "${WORK}/a4/ann.csv" | head -10 || true
      status=1
    fi
    for case_name in exact_knn_scores exact_lof_scores ann_knn ann_knn_scores ann_lof_scores; do
      if grep -q "^${case_name}," "${WORK}/a1/ann.csv"; then
        echo "OK   ann case '${case_name}' present in dump"
      else
        echo "FAIL ann case '${case_name}' absent from ann.csv"
        status=1
      fi
    done
    if [ -n "${TSAN_BUILD_DIR:-}" ]; then
      TSAN_ANN="${TSAN_BUILD_DIR}/bench/bench_ann"
      if [ ! -x "${TSAN_ANN}" ]; then
        echo "FAIL ann sweep: TSAN_BUILD_DIR set but '${TSAN_ANN}' is missing"
        status=1
      else
        tsan_ann=$(readlink -f "${TSAN_ANN}")
        mkdir -p "${WORK}/atsan"
        echo "== CND_THREADS=4 (TSan) $(basename "${tsan_ann}") --dump-ann=ann.csv"
        (cd "${WORK}/atsan" && CND_THREADS=4 "${tsan_ann}" --dump-ann=ann.csv > stdout.log)
        if diff -q "${WORK}/a1/ann.csv" "${WORK}/atsan/ann.csv" > /dev/null; then
          echo "OK   ann.csv identical between Release t1 and TSan t4"
        else
          echo "FAIL ann.csv differs between Release t1 and TSan t4"
          diff "${WORK}/a1/ann.csv" "${WORK}/atsan/ann.csv" | head -10 || true
          status=1
        fi
      fi
    fi
  fi
fi

# Serving sweep (on by default; SERVING_SWEEP=0 opts out): the sharded
# scoring service must produce byte-identical per-flow scores at any shard
# count, including across hot-swap adaptation rounds and real backpressure
# (the queue holds 4 batches while 4 shards drain it).
if [ "${SERVING_SWEEP:-1}" = "1" ]; then
  SERVING="${BUILD_DIR}/bench/bench_serving"
  SERVING_ARGS=(--flows=8000 --batch=256 --queue=4 --adapt-every=3000 --seed=7)
  if [ ! -x "${SERVING}" ]; then
    echo "FAIL serving sweep: '${SERVING}' is missing (SERVING_SWEEP=0 to skip)"
    status=1
  else
    serving=$(readlink -f "${SERVING}")
    for s in 1 4; do
      mkdir -p "${WORK}/s${s}"
      echo "== shards=${s} $(basename "${serving}") ${SERVING_ARGS[*]}"
      (cd "${WORK}/s${s}" && "${serving}" "${SERVING_ARGS[@]}" --shards=${s} \
          --dump-scores=scores.txt > stdout.log)
    done
    if diff -q "${WORK}/s1/scores.txt" "${WORK}/s4/scores.txt" > /dev/null; then
      echo "OK   serving scores identical between 1 and 4 shards"
    else
      echo "FAIL serving scores differ between 1 and 4 shards"
      diff "${WORK}/s1/scores.txt" "${WORK}/s4/scores.txt" | head -10 || true
      status=1
    fi
    if ! grep -q '"adaptations": 2,' "${WORK}/s1/BENCH_serving.json"; then
      echo "FAIL serving sweep ran without hot-swap adaptation rounds"
      status=1
    fi
    # Thread-pool variation at a fixed shard count: each shard's score path
    # runs the parallel runtime internally, so scores must also be
    # byte-identical when the pool has 1 lane vs 4 (independent of the
    # shard-count axis above).
    for t in 1 4; do
      mkdir -p "${WORK}/t${t}"
      echo "== shards=2 CND_THREADS=${t} $(basename "${serving}") ${SERVING_ARGS[*]}"
      (cd "${WORK}/t${t}" && CND_THREADS=${t} "${serving}" "${SERVING_ARGS[@]}" \
          --shards=2 --dump-scores=scores.txt > stdout.log)
      if diff -q "${WORK}/s1/scores.txt" "${WORK}/t${t}/scores.txt" > /dev/null; then
        echo "OK   serving scores identical with a ${t}-lane thread pool"
      else
        echo "FAIL serving scores differ with a ${t}-lane thread pool"
        diff "${WORK}/s1/scores.txt" "${WORK}/t${t}/scores.txt" | head -10 || true
        status=1
      fi
    done
    if [ -n "${TSAN_BUILD_DIR:-}" ]; then
      TSAN_SERVING="${TSAN_BUILD_DIR}/bench/bench_serving"
      if [ ! -x "${TSAN_SERVING}" ]; then
        echo "FAIL serving sweep: TSAN_BUILD_DIR set but '${TSAN_SERVING}' is missing"
        status=1
      else
        tsan_serving=$(readlink -f "${TSAN_SERVING}")
        mkdir -p "${WORK}/stsan"
        echo "== shards=4 (TSan) $(basename "${tsan_serving}") ${SERVING_ARGS[*]}"
        (cd "${WORK}/stsan" && "${tsan_serving}" "${SERVING_ARGS[@]}" --shards=4 \
            --dump-scores=scores.txt > stdout.log)
        if diff -q "${WORK}/s1/scores.txt" "${WORK}/stsan/scores.txt" > /dev/null; then
          echo "OK   serving scores identical between Release 1-shard and TSan 4-shard"
        else
          echo "FAIL serving scores differ between Release 1-shard and TSan 4-shard"
          diff "${WORK}/s1/scores.txt" "${WORK}/stsan/scores.txt" | head -10 || true
          status=1
        fi
      fi
    fi
  fi
fi

# Optional full-registry sweep: bench_extended_nd + bench_fig3_cl_comparison
# + a tiny bench_scenarios grid together exercise all thirteen registered
# detectors; verify every name in DETECTORS shows up in their CSV output so
# no registry entry goes untested.
if [ "${FULL_REGISTRY:-0}" = "1" ]; then
  mkdir -p "${WORK}/reg"
  for bin in bench_extended_nd bench_fig3_cl_comparison; do
    if [ ! -x "${BUILD_DIR}/bench/${bin}" ]; then
      echo "FAIL FULL_REGISTRY=1 but '${BUILD_DIR}/bench/${bin}' is missing"
      status=1
      continue
    fi
    full=$(readlink -f "${BUILD_DIR}/bench/${bin}")  # resolve before the cd
    echo "== FULL_REGISTRY ${bin} --scale=0.05"
    (cd "${WORK}/reg" && CND_THREADS=4 "${full}" --scale=0.05 > "${bin}.log")
  done
  # bench_scenarios carries the drift-gated Adaptive detector, which no
  # fixed-protocol bench runs; one scenario at a tiny scale keeps it cheap.
  if [ ! -x "${BUILD_DIR}/bench/bench_scenarios" ]; then
    echo "FAIL FULL_REGISTRY=1 but '${BUILD_DIR}/bench/bench_scenarios' is missing"
    status=1
  else
    full=$(readlink -f "${BUILD_DIR}/bench/bench_scenarios")
    echo "== FULL_REGISTRY bench_scenarios --scale=0.05 (CND-IDS,Adaptive)"
    (cd "${WORK}/reg" && CND_THREADS=4 "${full}" --scale=0.05 \
        --scenarios=class-incremental --detectors=CND-IDS,Adaptive \
        > bench_scenarios.log)
  fi
  for det in "${DETECTORS[@]}"; do
    if grep -qF "${det}" "${WORK}"/reg/*.csv "${WORK}"/reg/*.log 2> /dev/null; then
      echo "OK   registry detector '${det}' exercised"
    else
      echo "FAIL registry detector '${det}' absent from full-registry run"
      status=1
    fi
  done
fi

# Static determinism proof (on by default; STATIC_SWEEP=0 opts out): the
# runtime byte-diffs above sample; the determinism-taint reachability scan
# proves. A graceful skip keeps bench-only invocations (custom BUILD_DIR
# without the tools targets) working.
if [ "${STATIC_SWEEP:-1}" = "1" ]; then
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
fi

exit ${status}
