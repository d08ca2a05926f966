# The paper's fast benches, run by ctest (label `paper`): Table 1's
# landscape, Figure 9's landscape, the ideal-resilience table and the
# touring results. Each bench's --json output must reproduce its recorded
# baseline tests/baselines/paper_<bench>.json byte for byte, so a change in
# the routing, minor or classification code that moves a reproduced result
# fails here. The baselines are identical at --threads 1 and 4.
#
# Usage: cmake -DBENCH_DIR=<dir with bench_*> -DBASELINE_DIR=<tests/baselines>
#              -DWORK_DIR=<dir> -P paper_benches.cmake

if(NOT BENCH_DIR OR NOT BASELINE_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DBENCH_DIR=..., -DBASELINE_DIR=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(bench table1_landscape fig9_landscape ideal_resilience touring)
  execute_process(COMMAND "${BENCH_DIR}/bench_${bench}" --json "${WORK_DIR}/${bench}.json"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_${bench} failed (rc=${rc}): ${err}")
  endif()
  file(READ "${BASELINE_DIR}/paper_${bench}.json" golden)
  file(READ "${WORK_DIR}/${bench}.json" produced)
  if(NOT golden STREQUAL produced)
    message(FATAL_ERROR "bench_${bench} --json differs from ${BASELINE_DIR}/paper_${bench}.json")
  endif()
endforeach()
