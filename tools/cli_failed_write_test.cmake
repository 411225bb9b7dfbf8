# A profile file the disk refuses is a failed command, not a success:
# `merge-results` into /dev/full (every flushed write fails with ENOSPC)
# must exit 1 naming the failed write, and the same merge into a normal
# path must exit 0.
#
#   cmake -DCLI=<cellsync_deconvolve> -DWORK_DIR=<work dir> -P cli_failed_write_test.cmake
if(NOT EXISTS "/dev/full")
  message("SKIPPED: no /dev/full on this host")
  return()
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/shard.csv"
     "# lambda:a=0.001\nphi,a\n0,1.5\n0.5,2.25\n1,1.5\n")

function(merge_into output expect_code expect_text)
  execute_process(
    COMMAND "${CLI}" merge-results "${WORK_DIR}/shard.csv" --output "${output}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  message("${out}${err}")
  if(NOT code EQUAL ${expect_code})
    message(FATAL_ERROR "merge into ${output} exited '${code}', expected ${expect_code}")
  endif()
  if(NOT "${out}${err}" MATCHES "${expect_text}")
    message(FATAL_ERROR "merge into ${output}: expected '${expect_text}'")
  endif()
endfunction()

merge_into(/dev/full 1 "write failed for '/dev/full'")
merge_into("${WORK_DIR}/merged.csv" 0 "merged 1 profiles from 1 shards")
file(READ "${WORK_DIR}/shard.csv" shard)
file(READ "${WORK_DIR}/merged.csv" merged)
if(NOT shard STREQUAL merged)
  message(FATAL_ERROR "merging one shard changed its bytes:\n${merged}")
endif()
