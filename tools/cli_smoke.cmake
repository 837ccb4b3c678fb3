# End-to-end smoke test of the `cnd` CLI:
# gen -> run -> score -> snapshot -> restore --explain, pack -> serve --out
# at 1 and 4 shards, a malformed numeric flag, two out-of-range ones, a
# misspelt one, a stray argument and two malformed CSV files.
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
# An argument that is not a --flag is an error, not dropped: gen would
# otherwise write the default dataset.
expect_rejected(cicids2017 "${CND_BIN}" gen "--out=${work}/rejected.csv" cicids2017)

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

# pack -> serve --out: one "score verdict" line per flow, byte-identical at
# 1 and 4 shards. 880 flows in 64-flow batches with a round every 200 flows
# put four adaptation rounds, and their replica swaps, mid-stream.
set(flows "${work}/smoke.bin")
run_step("${CND_BIN}" pack "--data=${csv}" "--out=${flows}")
if(NOT last_out MATCHES "packed ([0-9]+) flows")
  message(FATAL_ERROR "pack output missing the flow count:\n${last_out}")
endif()
set(n_flows "${CMAKE_MATCH_1}")
foreach(shards 1 4)
  set(verdicts "${work}/verdicts_${shards}.txt")
  run_step("${CND_BIN}" serve "--flows=${flows}" "--clean=${csv}"
           --shards=${shards} --batch=64 --adapt-every=200 --epochs=2
           "--out=${verdicts}")
  if(NOT last_out MATCHES "\nadaptations +[1-9]")
    message(FATAL_ERROR "serve --shards=${shards} ran no adaptation round:\n"
                        "${last_out}")
  endif()
  file(STRINGS "${verdicts}" lines)
  list(LENGTH lines n_lines)
  if(NOT n_lines EQUAL n_flows)
    message(FATAL_ERROR "${verdicts} has ${n_lines} lines for ${n_flows} flows")
  endif()
  file(SHA256 "${verdicts}" sha_${shards})
endforeach()
if(NOT sha_1 STREQUAL sha_4)
  message(FATAL_ERROR "serve --out differs between 1 and 4 shards")
endif()

# A malformed CSV cell fails the load, naming the cell, instead of loading
# `0.3x` as 0.3 or the label `1.9` as 1.
file(WRITE "${work}/junk_cell.csv" "f0,f1,label,attack_class\n0.3x,1.5,1,0\n")
expect_rejected("'0.3x'" "${CND_BIN}" pack "--data=${work}/junk_cell.csv"
                "--out=${work}/rejected.bin")
file(WRITE "${work}/frac_label.csv" "f0,f1,label,attack_class\n0.5,1.5,1.9,0\n")
expect_rejected("'1.9'" "${CND_BIN}" pack "--data=${work}/frac_label.csv"
                "--out=${work}/rejected.bin")

# A flag the subcommand does not read fails before a file is read, instead
# of serving with adaptation off and the default epochs.
expect_rejected(--adapt_every "${CND_BIN}" serve "--flows=${flows}"
                "--clean=${csv}" --adapt_every=200 --epoch=2)

message(STATUS "cli smoke test passed")
