#!/usr/bin/env bash
# cnd-analyze-path: tools/check_determinism.sh
# Names every registered detector and every kernel dump case, and runs the
# kernel sweep: registry-coverage stays silent.
DETECTORS=("CND-IDS" "Maha")
KERNELS=("matmul" "knn")
"${BUILD_DIR}/bench/bench_micro_substrate" --dump-kernels=kernels.csv
