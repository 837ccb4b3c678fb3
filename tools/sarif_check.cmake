# Drives the SARIF reporting layer end to end as a ctest case
# (docs/STATIC_ANALYSIS.md): emit from cnd_analyze and structurally validate
# with tools/check_sarif.py.
#
# Inputs (all -D):
#   ANALYZE_BIN  path to the cnd_analyze binary
#   PYTHON       python3 interpreter
#   SRC_DIR      repository root
#   BIN_DIR      build directory (the SARIF files are written under it)
#   MODE         "selftest" — fixture-corpus report, results required
#                "tree"     — real-tree report (clean => empty results),
#                             plus --rule/--json single-rule smoke
cmake_minimum_required(VERSION 3.16)

function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    string(JOIN " " cmd ${ARGN})
    message(FATAL_ERROR "sarif_check: command failed (${rv}): ${cmd}")
  endif()
endfunction()

set(work ${BIN_DIR}/sarif_${MODE})
file(MAKE_DIRECTORY ${work})
set(check ${PYTHON} ${SRC_DIR}/tools/check_sarif.py)

if(MODE STREQUAL "selftest")
  # The corpus contains known-bad fixtures, so the report must carry
  # results — this is the schema check over a non-trivial document.
  run(${ANALYZE_BIN} --selftest ${SRC_DIR}/tools/analyze_selftest
      --sarif ${work}/analyze.sarif)
  run(${check} ${work}/analyze.sarif --require-results)
elseif(MODE STREQUAL "tree")
  run(${ANALYZE_BIN} --root ${SRC_DIR} --sarif ${work}/analyze.sarif)
  run(${check} ${work}/analyze.sarif)
  # Single-rule + machine-readable summary, the form check_determinism.sh
  # consumes.
  run(${ANALYZE_BIN} --root ${SRC_DIR} --rule=determinism-taint --json)
else()
  message(FATAL_ERROR "sarif_check: unknown MODE '${MODE}'")
endif()
