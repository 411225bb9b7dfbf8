# Finite-output invariant for `stream`: a gene whose values alternate
# +-1e308 overflows inside the solve from its first timepoint, and a gene
# that is finite until its last value overflows. `stream` must report
# both as labeled per-gene failures and exit 1, write no column and no
# NaN for either (the late one must not leave a stale prefix estimate
# behind), and keep the finite gene.
#
#   cmake -DCLI=<cellsync_deconvolve> -DWORK_DIR=<scratch dir> -P cli_stream_nonfinite_gene_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ok_values 2.0 2.9 3.4 3.4 2.9 2.0 1.1 0.6 0.6 1.1 2.0)
set(records "time,gene,value\n")
foreach(m RANGE 10)
  math(EXPR t "15 * ${m}")
  math(EXPR odd "${m} % 2")
  list(GET ok_values ${m} ok)
  if(odd)
    set(huge "-1e308")
  else()
    set(huge "1e308")
  endif()
  if(m EQUAL 10)
    set(late "1e308")
  else()
    set(late "${ok}")
  endif()
  string(APPEND records "${t},ok,${ok}\n${t},huge,${huge}\n${t},late,${late}\n")
endforeach()
file(WRITE "${WORK_DIR}/records.csv" "${records}")

execute_process(
  COMMAND "${CLI}" stream --input "${WORK_DIR}/records.csv" --times 0:150:11
          --cells 3000 --bins 60 --seed 7 --threads 2 --output "${WORK_DIR}/out.csv"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT code EQUAL 1)
  message(FATAL_ERROR "expected exit 1 for a non-finite gene, got '${code}'")
endif()
foreach(gene huge late)
  if(NOT out MATCHES "gene '${gene}' \\[std::runtime_error\\]: estimate has non-finite")
    message(FATAL_ERROR "gene '${gene}' was not reported as a labeled failure")
  endif()
endforeach()
if(out MATCHES "\n  huge +[0-9]+/")
  message(FATAL_ERROR "the overflowing gene was reported with an estimate")
endif()
file(READ "${WORK_DIR}/out.csv" profiles)
if(profiles MATCHES "nan|inf")
  message(FATAL_ERROR "non-finite value written to out.csv")
endif()
if(NOT profiles MATCHES "\nphi,ok\n")
  message(FATAL_ERROR "the finite gene is missing from out.csv (or the failed gene is not)")
endif()
