# End-to-end smoke of the pofl_cli distributed-sweep workflow, run by ctest:
#
#   1. export the synthetic zoo and sweep the canonical perf graph with
#      `sweep --procs 4 --json`, checking the merged result bit-for-bit
#      against the checked-in baseline (tests/baselines/cli_zoo_procs.json);
#   2. run the same sweep as two explicit `--shard i/2` workers plus a
#      `merge --check` — the multi-host spelling of the same workflow;
#   3. regression-check the argument validation: `--threads 0`, negative
#      and non-numeric values, bad shard specs, `--procs 0` and overflowing
#      numerals must all be rejected (the CLI used to accept some of these
#      silently via atoi, and strtol's ERANGE clamping let absurd values
#      like `--procs 99999999999999999999` pass as LONG_MAX);
#   4. wide-mask exhaustive shard/merge: the 108-link fat-tree (past the old
#      64-edge wall) swept with `sweep ... exhaustive 1 --procs 2`, checked
#      bit-for-bit against tests/baselines/cli_fattree_exhaustive.json;
#   5. plain unsharded runs reproduce both sharded baselines: the zoo sweep
#      at the default thread count and at `--threads 4`, and the fat-tree
#      exhaustive sweep.
#
# Usage: cmake -DPOFL_CLI=<exe> -DBASELINE=<json> -DWIDE_BASELINE=<json>
#              -DWORK_DIR=<dir> -P cli_shard_smoke.cmake

if(NOT POFL_CLI OR NOT BASELINE OR NOT WIDE_BASELINE OR NOT WORK_DIR)
  message(FATAL_ERROR
          "need -DPOFL_CLI=..., -DBASELINE=..., -DWIDE_BASELINE=... and -DWORK_DIR=...")
endif()

set(GRAPH "${WORK_DIR}/zoo/synth-hubring-40-214.graphml")
set(WIDE_GRAPH "${WORK_DIR}/zoo/synth-fattree-k6-45-108.graphml")
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

# 1. --procs driver merges bit-exactly to the checked-in unsharded baseline.
run_cli(TRUE sweep "${GRAPH}" 0.05 20 --procs 4
        --json "${WORK_DIR}/procs4.json" --check "${BASELINE}")
file(READ "${BASELINE}" golden)
file(READ "${WORK_DIR}/procs4.json" merged)
if(NOT golden STREQUAL merged)
  message(FATAL_ERROR "--procs 4 --json bytes differ from the checked-in baseline")
endif()

# 2. Explicit shard workers + merge --check (the multi-host workflow).
run_cli(TRUE sweep "${GRAPH}" 0.05 20 --shard 0/2 --json "${WORK_DIR}/s0.json")
run_cli(TRUE sweep "${GRAPH}" 0.05 20 --shard 1/2 --json "${WORK_DIR}/s1.json")
run_cli(TRUE merge "${WORK_DIR}/s0.json" "${WORK_DIR}/s1.json" --check "${BASELINE}")
# Duplicate and mismatched shard sets must be rejected.
run_cli(FALSE merge "${WORK_DIR}/s0.json" "${WORK_DIR}/s0.json")

# 3. Argument validation regressions.
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --threads 0)
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --threads -2)
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --threads 2x)
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --procs 0)
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --shard 2/2)
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --shard junk)
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --shard 0/2 --procs 2)
run_cli(FALSE sweep "${GRAPH}" notanumber 20)
run_cli(FALSE sweep "${GRAPH}" nan 20)
# Overflow regressions: strtol clamps to LONG_MAX and only signals through
# errno, and an unchecked long -> int cast truncates 2^32+1 to a silently
# small value. All of these used to slip through as wrong-but-plausible runs.
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --procs 99999999999999999999)
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --procs 4294967297)
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --threads 99999999999999999999)
run_cli(FALSE sweep "${GRAPH}" 0.05 20 --shard 0/99999999999999999999)
run_cli(FALSE sweep "${GRAPH}" 0.05 99999999999999999999)
run_cli(FALSE sweep "${GRAPH}" exhaustive 99999999999999999999)
run_cli(FALSE sweep "${GRAPH}" exhaustive 513)

# 4. Wide-mask exhaustive shard/merge on the 108-link fat-tree: --procs 2
# must merge bit-for-bit to the checked-in baseline, and the explicit
# two-worker spelling must agree with it.
if(NOT EXISTS "${WIDE_GRAPH}")
  message(FATAL_ERROR "export-zoo did not produce ${WIDE_GRAPH}")
endif()
run_cli(TRUE sweep "${WIDE_GRAPH}" exhaustive 1 --procs 2
        --json "${WORK_DIR}/wide.json" --check "${WIDE_BASELINE}")
run_cli(TRUE sweep "${WIDE_GRAPH}" exhaustive 1 --shard 0/2 --json "${WORK_DIR}/w0.json")
run_cli(TRUE sweep "${WIDE_GRAPH}" exhaustive 1 --shard 1/2 --json "${WORK_DIR}/w1.json")
run_cli(TRUE merge "${WORK_DIR}/w0.json" "${WORK_DIR}/w1.json" --check "${WIDE_BASELINE}")

# 5. An unsharded sweep records the same bytes as the sharded runs.
run_cli(TRUE sweep "${GRAPH}" 0.05 20 --check "${BASELINE}")
run_cli(TRUE sweep "${GRAPH}" 0.05 20 --threads 4 --check "${BASELINE}")
run_cli(TRUE sweep "${WIDE_GRAPH}" exhaustive 1 --check "${WIDE_BASELINE}")

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cli shard smoke OK")
