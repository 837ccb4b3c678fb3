# End-to-end smoke test of the `cnd` CLI:
# gen -> run -> score -> snapshot -> restore --explain, a malformed numeric
# flag and two out-of-range ones.
# Invoked by ctest with -DCND_BIN=<path-to-binary>.
if(NOT DEFINED CND_BIN)
  message(FATAL_ERROR "CND_BIN not set")
endif()

set(work "${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_work")
file(MAKE_DIRECTORY "${work}")
set(csv "${work}/smoke.csv")
set(artifact "${work}/smoke_artifact.cnd")

function(run_step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
endfunction()

run_step("${CND_BIN}" gen --dataset=wustl_iiot "--out=${csv}" --scale=0.05 --seed=3)
if(NOT EXISTS "${csv}")
  message(FATAL_ERROR "gen did not write ${csv}")
endif()

run_step("${CND_BIN}" run "--data=${csv}" --experiences=4 --epochs=2)
string(FIND "${last_out}" "AVG=" has_avg)
if(has_avg EQUAL -1)
  message(FATAL_ERROR "run output missing AVG metric:\n${last_out}")
endif()

run_step("${CND_BIN}" score "--train=${csv}" "--test=${csv}" --epochs=2)
string(FIND "${last_out}" "threshold=" has_thr)
if(has_thr EQUAL -1)
  message(FATAL_ERROR "score output missing threshold:\n${last_out}")
endif()

run_step("${CND_BIN}" snapshot "--data=${csv}" "--out=${artifact}" --epochs=2)
if(NOT EXISTS "${artifact}")
  message(FATAL_ERROR "snapshot did not write the serving artifact")
endif()

# A bad flag value fails fast: exit 1 with a message naming the flag.
function(expect_rejected flag)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err TIMEOUT 60)
  string(FIND "${err}" "${flag}" names_flag)
  if(NOT rc EQUAL 1 OR names_flag EQUAL -1)
    message(FATAL_ERROR "must exit 1 naming ${flag} (${rc}): ${ARGN}\n${err}")
  endif()
endfunction()

# Read by a plain std::stoul, --epochs=-1 would be 2^64 - 1 epochs.
expect_rejected(--epochs "${CND_BIN}" snapshot "--data=${csv}"
                "--out=${work}/rejected.cnd" --epochs=-1)
# Range checks run before training, not in the threshold helpers after it.
expect_rejected(--quantile "${CND_BIN}" score "--train=${csv}" "--test=${csv}"
                --quantile=5)
expect_rejected(--fpr "${CND_BIN}" snapshot "--data=${csv}"
                "--out=${work}/rejected.cnd" --fpr=2)

run_step("${CND_BIN}" restore "--artifact=${artifact}" "--test=${csv}" --explain)
string(FIND "${last_out}" "threshold=" has_thr)
if(has_thr EQUAL -1)
  message(FATAL_ERROR "restore output missing threshold:\n${last_out}")
endif()
# An alarmed row carries its top latent-feature attributions, e.g.
# `17,4.210000,attack,"f3 (62%), f7 (21%), f1 (9%)"`.
string(REGEX MATCH "\n[0-9]+,[^,\n]+,attack,\"f[0-9]+ \\([0-9]+%\\)" attributed
       "${last_out}")
if(NOT attributed)
  message(FATAL_ERROR "restore --explain printed no attribution on an alarmed "
                      "row:\n${last_out}")
endif()

message(STATUS "cli smoke test passed")
