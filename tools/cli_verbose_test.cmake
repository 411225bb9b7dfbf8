# `run --verbose` prints the numerics line that deconv_bench/run.py's
# environment probe parses: `numerics: simd dispatch <tier> (<origin>)`.
# Checked for a single-series run and an experiment run, for a forced
# tier, and for a retired tier name, which is ignored with a warning.
#
#   cmake -DCLI=<cellsync_deconvolve> -DWORK_DIR=<work dir> -P cli_verbose_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(values 2.0 2.9 3.4 3.4 2.9 2.0 1.1 0.6 0.6 1.1 2.0 2.9 3.4)
set(series "time,value\n")
set(panel "time,a\n")
foreach(m RANGE 12)
  math(EXPR t "15 * ${m}")
  list(GET values ${m} v)
  string(APPEND series "${t},${v}\n")
  string(APPEND panel "${t},${v}\n")
endforeach()
file(WRITE "${WORK_DIR}/series.csv" "${series}")
file(WRITE "${WORK_DIR}/panel.csv" "${panel}")

set(probe "numerics: simd dispatch ([^ \t\r\n]+) \\(([A-Za-z0-9_]+)\\)")

# Runs the CLI with CELLSYNC_DISPATCH=<dispatch> (empty = unset, which
# the dispatcher treats the same) and leaves stdout/stderr in out/err.
function(run_verbose name dispatch)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "CELLSYNC_DISPATCH=${dispatch}"
            "${CLI}" run ${ARGN} --cells 2000 --bins 40 --lambda 1e-3 --threads 1
            --verbose
    RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  message("${name}:\n${stdout}${stderr}")
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${name} run exited '${code}'")
  endif()
  if(NOT stdout MATCHES "${probe}")
    message(FATAL_ERROR "${name}: no line matching '${probe}'")
  endif()
  set(tier "${CMAKE_MATCH_1}" PARENT_SCOPE)
  set(origin "${CMAKE_MATCH_2}" PARENT_SCOPE)
  set(err "${stderr}" PARENT_SCOPE)
endfunction()

run_verbose(single "" --input "${WORK_DIR}/series.csv" --output "${WORK_DIR}/single.csv")
if(NOT tier MATCHES "^(scalar|avx2|fma)$" OR NOT origin MATCHES "^(cpu|build)$")
  message(FATAL_ERROR "single: unexpected tier '${tier}' origin '${origin}'")
endif()

run_verbose(experiment "" --condition "wt=${WORK_DIR}/panel.csv"
            --output "${WORK_DIR}/experiment.csv")

run_verbose(forced scalar --input "${WORK_DIR}/series.csv"
            --output "${WORK_DIR}/forced.csv")
if(NOT tier STREQUAL "scalar" OR NOT origin STREQUAL "env")
  message(FATAL_ERROR "forced: expected 'scalar (env)', got '${tier} (${origin})'")
endif()

run_verbose(retired fma-contract --input "${WORK_DIR}/series.csv"
            --output "${WORK_DIR}/retired.csv")
if(NOT err MATCHES "ignoring unknown CELLSYNC_DISPATCH value 'fma-contract'")
  message(FATAL_ERROR "retired: fma-contract was not reported as unknown")
endif()
if(origin STREQUAL "env")
  message(FATAL_ERROR "retired: fma-contract was not ignored")
endif()
