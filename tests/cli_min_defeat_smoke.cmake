# End-to-end smoke of `pofl_cli min-defeat`, run by ctest:
#
#   1. export the synthetic zoo and solve the hard fat-tree k=6 pair 0,3
#      (cardinality-6 minimum; stratified enumeration would visit ~117M
#      leaves here) with the default branch-and-bound strategy, checking the
#      JSON — status, canonical witness and the full telemetry block —
#      bit-for-bit against tests/baselines/cli_min_defeat_fattree.json;
#   2. re-solve an easy pair with --enumerate and --budget, checking its JSON
#      (witness and the leaves_verified mask count) bit-for-bit against
#      tests/baselines/cli_min_defeat_enumerate.json, and run two more pairs;
#   3. regression-check the argument validation: malformed pairs, unknown
#      patterns, bad seeds, out-of-range budgets and out-of-range vertex ids
#      must all be rejected.
#
# Usage: cmake -DPOFL_CLI=<exe> -DBASELINE=<json> -DENUM_BASELINE=<json>
#              -DWORK_DIR=<dir> -P cli_min_defeat_smoke.cmake

if(NOT POFL_CLI OR NOT BASELINE OR NOT ENUM_BASELINE OR NOT WORK_DIR)
  message(FATAL_ERROR
          "need -DPOFL_CLI=..., -DBASELINE=..., -DENUM_BASELINE=... and -DWORK_DIR=...")
endif()

set(GRAPH "${WORK_DIR}/zoo/synth-fattree-k6-45-108.graphml")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli expect_success)
  execute_process(COMMAND ${POFL_CLI} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(expect_success AND NOT rc EQUAL 0)
    message(FATAL_ERROR "pofl_cli ${ARGN} failed (rc=${rc}): ${err}")
  endif()
  if(NOT expect_success AND rc EQUAL 0)
    message(FATAL_ERROR "pofl_cli ${ARGN} succeeded but must be rejected")
  endif()
endfunction()

run_cli(TRUE export-zoo "${WORK_DIR}/zoo")
if(NOT EXISTS "${GRAPH}")
  message(FATAL_ERROR "export-zoo did not produce ${GRAPH}")
endif()

# 1. The hard pair, default strategy, bit-exact against the golden baseline.
run_cli(TRUE min-defeat "${GRAPH}" shortest-path 0,3
        --json "${WORK_DIR}/hard.json" --check "${BASELINE}")
file(READ "${BASELINE}" golden)
file(READ "${WORK_DIR}/hard.json" produced)
if(NOT golden STREQUAL produced)
  message(FATAL_ERROR "min-defeat --json bytes differ from the checked-in baseline")
endif()

# 2. Escape hatches: forced enumeration under an explicit budget, bit-exact
#    against its golden baseline; then two more pairs.
run_cli(TRUE min-defeat "${GRAPH}" shortest-path 0,9 --enumerate --budget 3
        --json "${WORK_DIR}/enumerate.json")
file(READ "${ENUM_BASELINE}" golden)
file(READ "${WORK_DIR}/enumerate.json" produced)
if(NOT golden STREQUAL produced)
  message(FATAL_ERROR "min-defeat --enumerate --json bytes differ from ${ENUM_BASELINE}")
endif()
run_cli(TRUE min-defeat "${GRAPH}" id-cyclic 0,44)
run_cli(TRUE min-defeat "${GRAPH}" random-cyclic:7 0,1 --budget 2)

# 3. Argument validation regressions.
run_cli(FALSE min-defeat "${GRAPH}" shortest-path 0)
run_cli(FALSE min-defeat "${GRAPH}" shortest-path 0,3,5)
run_cli(FALSE min-defeat "${GRAPH}" shortest-path 0,x)
run_cli(FALSE min-defeat "${GRAPH}" shortest-path 3,3)
run_cli(FALSE min-defeat "${GRAPH}" shortest-path 0,999)
run_cli(FALSE min-defeat "${GRAPH}" shortest-path -1,3)
run_cli(FALSE min-defeat "${GRAPH}" no-such-pattern 0,3)
run_cli(FALSE min-defeat "${GRAPH}" random-cyclic:abc 0,3)
run_cli(FALSE min-defeat "${GRAPH}" random-cyclic:-1 0,3)
run_cli(FALSE min-defeat "${GRAPH}" shortest-path 0,3 --budget -1)
run_cli(FALSE min-defeat "${GRAPH}" shortest-path 0,3 --budget 513)
run_cli(FALSE min-defeat "${GRAPH}" shortest-path 0,3 --budget 99999999999999999999)
run_cli(FALSE min-defeat "${GRAPH}" shortest-path 0,3 --no-such-flag)
run_cli(FALSE min-defeat "${WORK_DIR}/does-not-exist.graphml" shortest-path 0,3)

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cli min-defeat smoke OK")
