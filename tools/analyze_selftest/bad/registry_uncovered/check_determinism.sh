#!/usr/bin/env bash
# cnd-analyze-path: tools/check_determinism.sh
# cnd-analyze-expect: registry-coverage
# The script fell behind the registry: the second detector registered in
# detector_factory.cpp is not named here, so the end-to-end determinism
# sweep would silently skip it.
DETECTORS=("CND-IDS")
