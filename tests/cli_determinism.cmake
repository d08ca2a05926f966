# The CLI half of the determinism matrix, run by ctest (label determinism):
# each recorded CLI sweep must come out byte-identical from
#
#   * `pofl_cli sweep --json` at --threads 1, 2 and 4, and with --threads
#     unset (the hardware concurrency);
#   * `sweep --procs 3` (three shard worker processes, merged);
#   * eight explicit `--shard i/8` runs and one `merge`.
#
# The recorded sweeps are tests/baselines/cli_zoo_procs.json (hubring-40,
# p = 0.05, 20 trials) and tests/baselines/cli_fattree_exhaustive.json (the
# 108-link fat-tree, |F| <= 1). The engine half, threads x shards through
# run_report and find_first_violation on the tests/baselines/sweep_*.json
# specs, is the Determinism gtest suite.
#
# Usage: cmake -DPOFL_CLI=<exe> -DBASELINE_DIR=<dir> -DWORK_DIR=<dir>
#              -P cli_determinism.cmake

if(NOT POFL_CLI OR NOT BASELINE_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DPOFL_CLI=..., -DBASELINE_DIR=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli)
  execute_process(COMMAND ${POFL_CLI} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pofl_cli ${ARGN} failed (rc=${rc}): ${err}")
  endif()
endfunction()

function(expect_golden golden_path got_path what)
  file(READ "${golden_path}" golden)
  file(READ "${got_path}" got)
  if(NOT golden STREQUAL got)
    message(FATAL_ERROR "${what}: bytes differ from ${golden_path}")
  endif()
endfunction()

run_cli(export-zoo "${WORK_DIR}/zoo")

# Each entry: baseline file name, graph file name, then the two sweep
# arguments after the graph.
set(CASES
    "cli_zoo_procs.json|synth-hubring-40-214.graphml|0.05|20"
    "cli_fattree_exhaustive.json|synth-fattree-k6-45-108.graphml|exhaustive|1")

foreach(case IN LISTS CASES)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 name)
  list(GET fields 1 graph_file)
  list(GET fields 2 arg_a)
  list(GET fields 3 arg_b)
  set(golden "${BASELINE_DIR}/${name}")
  set(graph "${WORK_DIR}/zoo/${graph_file}")
  set(sweep sweep "${graph}" "${arg_a}" "${arg_b}")

  foreach(threads 1 2 4)
    run_cli(${sweep} --threads ${threads} --json "${WORK_DIR}/t${threads}.json")
    expect_golden("${golden}" "${WORK_DIR}/t${threads}.json" "${name} --threads ${threads}")
  endforeach()
  run_cli(${sweep} --json "${WORK_DIR}/unset.json")
  expect_golden("${golden}" "${WORK_DIR}/unset.json" "${name} with --threads unset")

  run_cli(${sweep} --procs 3 --json "${WORK_DIR}/procs3.json")
  expect_golden("${golden}" "${WORK_DIR}/procs3.json" "${name} --procs 3")

  set(shard_files "")
  foreach(i RANGE 7)
    run_cli(${sweep} --shard ${i}/8 --json "${WORK_DIR}/shard${i}.json")
    list(APPEND shard_files "${WORK_DIR}/shard${i}.json")
  endforeach()
  run_cli(merge ${shard_files} --json "${WORK_DIR}/merged8.json")
  expect_golden("${golden}" "${WORK_DIR}/merged8.json" "${name} 8-shard merge")
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cli determinism OK")
