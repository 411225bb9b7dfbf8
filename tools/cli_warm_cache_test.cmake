# Warm and cold kernel caches give the same bytes, end to end: `run` with
# an empty --cache-dir simulates the kernel, a second `run` on that
# directory loads it from disk, and a third `run` in another fresh
# directory (another process, another thread count, traced) simulates it
# again. All three must write identical profile CSVs.
#
#   cmake -DCLI=<cellsync_deconvolve> -DWORK_DIR=<work dir> -P cli_warm_cache_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(a_values 2.0 2.9 3.4 3.4 2.9 2.0 1.1 0.6 0.6 1.1 2.0 2.9 3.4)
set(b_values 1.0 1.2 1.9 2.8 3.5 3.6 3.0 2.1 1.4 1.0 0.9 1.1 1.6)
set(panel "time,a,b\n")
foreach(m RANGE 12)
  math(EXPR t "15 * ${m}")
  list(GET a_values ${m} a)
  list(GET b_values ${m} b)
  string(APPEND panel "${t},${a},${b}\n")
endforeach()
file(WRITE "${WORK_DIR}/panel.csv" "${panel}")

function(run_cli name cache threads expect_summary)
  execute_process(
    COMMAND "${CLI}" run --condition "wt=${WORK_DIR}/panel.csv" --cells 4000 --bins 60
            --seed 11 --threads ${threads} --cache-dir "${WORK_DIR}/${cache}"
            --output "${WORK_DIR}/${name}.csv" ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  message("${out}${err}")
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${name} run exited '${code}'")
  endif()
  if(NOT out MATCHES "${expect_summary}")
    message(FATAL_ERROR "${name} run: expected '${expect_summary}'")
  endif()
endfunction()

run_cli(cold cache 2 "kernels: 1 simulated, 0 from disk")
run_cli(warm cache 2 "kernels: 0 simulated, 1 from disk")
run_cli(cold_again other_cache 1 "kernels: 1 simulated, 0 from disk"
        --trace "${WORK_DIR}/trace.json")

foreach(name warm cold_again)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/cold.wt.csv"
            "${WORK_DIR}/${name}.wt.csv"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${name}.wt.csv differs from cold.wt.csv")
  endif()
endforeach()
