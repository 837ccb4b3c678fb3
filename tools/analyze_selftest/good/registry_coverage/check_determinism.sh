#!/usr/bin/env bash
# cnd-analyze-path: tools/check_determinism.sh
# Names every registered detector: registry-coverage stays silent.
DETECTORS=("CND-IDS" "Maha")
