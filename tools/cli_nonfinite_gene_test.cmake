# Finite-output invariant, end to end: a panel gene whose values alternate
# +-1e308 overflows inside the solve. `run` must report it as a labeled
# FAILED gene and exit 1, keep the finite gene, write no NaN, and count
# the failure in --metrics-json.
#
#   cmake -DCLI=<cellsync_deconvolve> -DWORK_DIR=<scratch dir> -P cli_nonfinite_gene_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ok_values 2.0 2.9 3.4 3.4 2.9 2.0 1.1 0.6 0.6 1.1 2.0)
set(panel "time,ok,huge\n")
foreach(m RANGE 10)
  math(EXPR t "15 * ${m}")
  math(EXPR odd "${m} % 2")
  list(GET ok_values ${m} ok)
  if(odd)
    set(huge "-1e308")
  else()
    set(huge "1e308")
  endif()
  string(APPEND panel "${t},${ok},${huge}\n")
endforeach()
file(WRITE "${WORK_DIR}/panel.csv" "${panel}")

execute_process(
  COMMAND "${CLI}" run --condition "wt=${WORK_DIR}/panel.csv" --cells 3000 --bins 60
          --seed 7 --threads 2 --output "${WORK_DIR}/out.csv"
          --metrics-json "${WORK_DIR}/metrics.json"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT code EQUAL 1)
  message(FATAL_ERROR "expected exit 1 for a non-finite gene, got '${code}'")
endif()
if(NOT out MATCHES "huge +FAILED: gene 'huge' \\[std::runtime_error\\]: estimate has non-finite")
  message(FATAL_ERROR "the overflowing gene was not reported as FAILED")
endif()
file(READ "${WORK_DIR}/out.wt.csv" profiles)
if(profiles MATCHES "nan|inf")
  message(FATAL_ERROR "non-finite value written to out.wt.csv")
endif()
if(NOT profiles MATCHES "\nphi,ok\n")
  message(FATAL_ERROR "the finite gene is missing from out.wt.csv")
endif()
file(READ "${WORK_DIR}/metrics.json" metrics)
if(metrics MATCHES "\"telemetry_compiled\": true" AND
   NOT metrics MATCHES "\"experiment\\.genes_failed\": 1[,\n]")
  message(FATAL_ERROR "expected experiment.genes_failed == 1 in --metrics-json:\n${metrics}")
endif()
