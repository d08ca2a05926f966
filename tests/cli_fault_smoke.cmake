# End-to-end smoke of the fault-tolerant --procs supervisor, run by ctest.
# POFL_FAULT (see src/orchestrate/fault_inject.hpp) injects deterministic
# worker failures; the supervised sweep must still merge bit-for-bit to the
# checked-in unsharded baseline (tests/baselines/cli_zoo_procs.json):
#
#   1. recovery matrix — one shard SIGKILLed / hung past --shard-timeout /
#      writing corrupt JSON / exiting non-zero on its first attempt, each
#      retried to a byte-identical merge;
#   2. retry exhaustion — a shard that always dies fails the run, and
#      --allow-partial instead emits the "incomplete" provenance block,
#      which `merge --check` refuses but a later merge with the missing
#      shard's report completes back to the golden bytes;
#   3. checkpoint/resume — a killed sweep leaves valid shard files in
#      --checkpoint-dir; the rerun resumes them (skipping the re-run) and
#      produces byte-identical output, while a rerun with different sweep
#      parameters, or over a graph file overwritten in place, is rejected
#      by the checkpoint.meta guard;
#   4. diagnostics and flag validation — merge names the file, shard, and
#      byte offset of a truncated input, the field of a well-formed report
#      whose counters do not add up, a misspelled key, and the first byte
#      of a consistent report that is not the engine's bytes; a --json path
#      that cannot be written (/dev/full) fails the command with its name;
#      supervision flags without --procs and malformed POFL_FAULT specs are
#      hard errors.
#
# Usage: cmake -DPOFL_CLI=<exe> -DBASELINE=<json> -DWORK_DIR=<dir>
#              -P cli_fault_smoke.cmake

if(NOT POFL_CLI OR NOT BASELINE OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DPOFL_CLI=..., -DBASELINE=... and -DWORK_DIR=...")
endif()

set(GRAPH "${WORK_DIR}/zoo/synth-hubring-40-214.graphml")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(READ "${BASELINE}" golden)

# Runs the CLI with POFL_FAULT=<fault> ("-" = no injection), asserts the
# exit code, and leaves stdout/stderr in cli_out/cli_err for the caller.
function(run_cli expect_success fault)
  if(fault STREQUAL "-")
    set(cmd ${POFL_CLI})
  else()
    set(cmd ${CMAKE_COMMAND} -E env "POFL_FAULT=${fault}" ${POFL_CLI})
  endif()
  execute_process(COMMAND ${cmd} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(expect_success AND NOT rc EQUAL 0)
    message(FATAL_ERROR "POFL_FAULT=${fault} pofl_cli ${ARGN} failed (rc=${rc}): ${err}")
  endif()
  if(NOT expect_success AND rc EQUAL 0)
    message(FATAL_ERROR "POFL_FAULT=${fault} pofl_cli ${ARGN} succeeded but must fail")
  endif()
  set(cli_out "${out}" PARENT_SCOPE)
  set(cli_err "${err}" PARENT_SCOPE)
endfunction()

function(expect_golden file what)
  file(READ "${file}" bytes)
  if(NOT bytes STREQUAL golden)
    message(FATAL_ERROR "${what}: ${file} differs from the unsharded baseline bytes")
  endif()
endfunction()

function(expect_contains text needle what)
  string(FIND "${text}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${what}: expected '${needle}' in: ${text}")
  endif()
endfunction()

run_cli(TRUE - export-zoo "${WORK_DIR}/zoo")
if(NOT EXISTS "${GRAPH}")
  message(FATAL_ERROR "export-zoo did not produce ${GRAPH}")
endif()

set(SWEEP sweep "${GRAPH}" 0.05 20 --procs 4)

# 1. Recovery matrix: every injected first-attempt failure is retried to a
# merge byte-identical to the unsharded golden baseline.
run_cli(TRUE crash:1:0 ${SWEEP} --retries 2 --json "${WORK_DIR}/crash.json")
expect_golden("${WORK_DIR}/crash.json" "SIGKILL recovery")
expect_contains("${cli_err}" "killed by signal 9" "SIGKILL recovery")

run_cli(TRUE hang:2:0 ${SWEEP} --retries 2 --shard-timeout 5
        --json "${WORK_DIR}/hang.json")
expect_golden("${WORK_DIR}/hang.json" "hang recovery")
expect_contains("${cli_err}" "timed out after 5s" "hang recovery")

run_cli(TRUE corrupt:0:0 ${SWEEP} --retries 2 --json "${WORK_DIR}/corrupt.json")
expect_golden("${WORK_DIR}/corrupt.json" "corrupt-JSON recovery")
expect_contains("${cli_err}" "invalid output" "corrupt-JSON recovery")

run_cli(TRUE exit:3:0:17 ${SWEEP} --retries 1 --json "${WORK_DIR}/exit.json")
expect_golden("${WORK_DIR}/exit.json" "non-zero-exit recovery")
expect_contains("${cli_err}" "exited with status 17" "non-zero-exit recovery")

# 2a. Retry exhaustion fails the run (shard 1 dies on every attempt).
run_cli(FALSE crash:1:* ${SWEEP} --retries 1 --json "${WORK_DIR}/exhausted.json")
expect_contains("${cli_err}" "failed after 2 attempt(s)" "retry exhaustion")

# 2b. --allow-partial turns the same exhaustion into a degraded merge that
# carries the incomplete provenance block...
run_cli(TRUE crash:1:* ${SWEEP} --retries 1 --allow-partial
        --json "${WORK_DIR}/partial.json")
file(READ "${WORK_DIR}/partial.json" partial_bytes)
expect_contains("${partial_bytes}"
                "\"incomplete\":{\"shard_count\":4,\"missing_shards\":[1],\"attempts\":[2]}"
                "--allow-partial provenance")
# ...which merge refuses to --check...
run_cli(FALSE - merge "${WORK_DIR}/partial.json" --check "${BASELINE}")
expect_contains("${cli_err}" "incomplete" "merge --check of a partial result")
# ...but completes back to the golden bytes once the missing shard arrives.
run_cli(TRUE - sweep "${GRAPH}" 0.05 20 --shard 1/4 --json "${WORK_DIR}/s1.json")
run_cli(TRUE - merge "${WORK_DIR}/partial.json" "${WORK_DIR}/s1.json"
        --json "${WORK_DIR}/recovered.json" --check "${BASELINE}")
expect_golden("${WORK_DIR}/recovered.json" "partial + missing shard merge")

# 3. Checkpoint/resume: kill shard 3 with no retries; the other shards'
# outputs persist in the checkpoint dir and the rerun resumes from them,
# byte-identical to an uninterrupted run.
set(CKPT "${WORK_DIR}/ckpt")
run_cli(FALSE crash:3:* ${SWEEP} --retries 0 --checkpoint-dir "${CKPT}"
        --json "${WORK_DIR}/resumed.json")
foreach(i 0 1 2)
  if(NOT EXISTS "${CKPT}/shard_${i}_of_4.json")
    message(FATAL_ERROR "checkpoint dir lost shard ${i} after the crashed run")
  endif()
endforeach()
run_cli(TRUE - ${SWEEP} --retries 0 --checkpoint-dir "${CKPT}"
        --json "${WORK_DIR}/resumed.json")
expect_contains("${cli_out}" "resumed 3 of 4 shards" "checkpoint resume")
expect_golden("${WORK_DIR}/resumed.json" "checkpoint resume")
# A rerun with different parameters must be rejected by checkpoint.meta.
run_cli(FALSE - sweep "${GRAPH}" 0.05 10 --procs 4 --checkpoint-dir "${CKPT}")
expect_contains("${cli_err}" "different sweep" "checkpoint.meta guard")
# The guard records graph content, not path: the same command over a graph
# file overwritten in place is a different sweep too.
configure_file("${GRAPH}" "${WORK_DIR}/graph.bak" COPYONLY)
configure_file("${WORK_DIR}/zoo/synth-hubring-10-141.graphml" "${GRAPH}" COPYONLY)
run_cli(FALSE - ${SWEEP} --retries 0 --checkpoint-dir "${CKPT}")
expect_contains("${cli_err}" "different sweep" "checkpoint.meta content guard")
configure_file("${WORK_DIR}/graph.bak" "${GRAPH}" COPYONLY)

# 4a. Merge diagnostics: a truncated input is named with its byte offset;
# an empty one as empty.
file(READ "${WORK_DIR}/s1.json" s1_bytes)
string(SUBSTRING "${s1_bytes}" 0 200 s1_head)
file(WRITE "${WORK_DIR}/truncated.json" "${s1_head}")
run_cli(FALSE - merge "${WORK_DIR}/truncated.json")
expect_contains("${cli_err}" "truncated.json" "truncated-input diagnostic")
expect_contains("${cli_err}" "byte offset 200" "truncated-input diagnostic")
file(WRITE "${WORK_DIR}/empty.json" "")
run_cli(FALSE - merge "${WORK_DIR}/empty.json")
expect_contains("${cli_err}" "empty file (0 bytes)" "empty-input diagnostic")
# A well-formed report with one counter off (the K5 golden report with its
# total "looped":0 turned into 7) names the counter.
get_filename_component(baseline_dir "${BASELINE}" DIRECTORY)
file(READ "${baseline_dir}/sweep_k5_exhaustive.json" k5_bytes)
string(FIND "${k5_bytes}" "\"looped\":0" looped_at)
if(looped_at EQUAL -1)
  message(FATAL_ERROR "sweep_k5_exhaustive.json has no \"looped\":0 to corrupt")
endif()
string(SUBSTRING "${k5_bytes}" 0 ${looped_at} k5_head)
math(EXPR k5_tail_at "${looped_at} + 10")
string(SUBSTRING "${k5_bytes}" ${k5_tail_at} -1 k5_tail)
file(WRITE "${WORK_DIR}/miscounted.json" "${k5_head}\"looped\":7${k5_tail}")
run_cli(FALSE - merge "${WORK_DIR}/miscounted.json")
expect_contains("${cli_err}" "'looped'" "miscounted-report diagnostic")
# A key the writer never emits (the first "mean_hops" misspelled) names the
# key and its block.
string(FIND "${k5_bytes}" "\"mean_hops\"" mean_hops_at)
string(SUBSTRING "${k5_bytes}" 0 ${mean_hops_at} k5_head)
math(EXPR k5_tail_at "${mean_hops_at} + 11")
string(SUBSTRING "${k5_bytes}" ${k5_tail_at} -1 k5_tail)
file(WRITE "${WORK_DIR}/misspelled.json" "${k5_head}\"mean_hosp\"${k5_tail}")
run_cli(FALSE - merge "${WORK_DIR}/misspelled.json")
expect_contains("${cli_err}" "unknown key 'mean_hosp' in totals" "misspelled-key diagnostic")
# Only the engine's bytes are a report: the first "delivery_rate":1 turned
# into 0.25 keeps every counter consistent, but is not what the engine
# writes for them, and merge names the byte, the key and both spellings.
string(FIND "${k5_bytes}" "\"delivery_rate\":1" rate_at)
string(SUBSTRING "${k5_bytes}" 0 ${rate_at} k5_head)
math(EXPR k5_tail_at "${rate_at} + 17")
string(SUBSTRING "${k5_bytes}" ${k5_tail_at} -1 k5_tail)
file(WRITE "${WORK_DIR}/rerated.json" "${k5_head}\"delivery_rate\":0.25${k5_tail}")
run_cli(FALSE - merge "${WORK_DIR}/rerated.json")
expect_contains("${cli_err}"
                "not the engine's bytes at byte offset 249 in 'delivery_rate': read '0.25'"
                "derived-rate diagnostic")

# 4c. A report that cannot be written fails the command and names the path,
# also when the error only surfaces as the file is flushed and closed.
if(EXISTS /dev/full)
  run_cli(FALSE - min-defeat "${GRAPH}" shortest-path 0,2 --json /dev/full)
  expect_contains("${cli_err}" "cannot write /dev/full" "min-defeat write-failure diagnostic")
  run_cli(FALSE - sweep "${GRAPH}" 0.05 20 --json /dev/full)
  expect_contains("${cli_err}" "cannot write /dev/full" "sweep write-failure diagnostic")
endif()

# 4b. Flag validation: supervision flags require --procs; malformed
# POFL_FAULT specs are hard worker errors, not silent no-ops.
run_cli(FALSE - sweep "${GRAPH}" 0.05 20 --retries 2)
run_cli(FALSE - sweep "${GRAPH}" 0.05 20 --allow-partial)
run_cli(FALSE - sweep "${GRAPH}" 0.05 20 --shard 0/2 --shard-timeout 5)
run_cli(FALSE - ${SWEEP} --retries -1)
run_cli(FALSE - ${SWEEP} --retries junk)
run_cli(FALSE - ${SWEEP} --backoff-ms -5)
run_cli(FALSE - ${SWEEP} --shard-timeout 0)
run_cli(FALSE - ${SWEEP} --shard-timeout 1e9)
run_cli(FALSE explode:1:0 sweep "${GRAPH}" 0.05 20 --shard 0/4
        --json "${WORK_DIR}/badspec.json")
expect_contains("${cli_err}" "malformed POFL_FAULT" "bad fault spec")

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cli fault smoke OK")
