# Lambda selection on a series too short to cross-validate: with 2
# timepoints every k-fold split leaves 1 training row, so no fold can be
# scored. `run` must fail each gene, labeled, with a message pointing at
# --lambda, and exit 1, instead of silently writing the grid's first
# lambda for every gene.
#
#   cmake -DCLI=<cellsync_deconvolve> -DWORK_DIR=<scratch dir> -P cli_cv_no_fold_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/two.csv" "time,g1,g2\n0,1.0,2.0\n60,2.0,1.0\n")

execute_process(
  COMMAND "${CLI}" run --condition "a=${WORK_DIR}/two.csv,mu_sst=0.15,cycle_minutes=150"
          --cells 2000 --bins 60 --seed 7 --threads 2 --output "${WORK_DIR}/out.csv"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT code EQUAL 1)
  message(FATAL_ERROR "expected exit 1 when no CV fold can be scored, got '${code}'")
endif()
foreach(gene g1 g2)
  if(NOT out MATCHES "${gene} +FAILED: gene '${gene}' \\[std::invalid_argument\\]: 2-timepoint series: no k-fold CV fold[^\n]*--lambda")
    message(FATAL_ERROR "gene ${gene} was not reported as a labeled CV failure naming --lambda")
  endif()
endforeach()
if(EXISTS "${WORK_DIR}/out.a.csv")
  file(READ "${WORK_DIR}/out.a.csv" profiles)
  if(profiles MATCHES "# lambda:")
    message(FATAL_ERROR "a lambda was written although none could be selected:\n${profiles}")
  endif()
endif()

# The way out the message names: a fixed lambda bypasses CV and succeeds.
execute_process(
  COMMAND "${CLI}" run --condition "a=${WORK_DIR}/two.csv,mu_sst=0.15,cycle_minutes=150"
          --cells 2000 --bins 60 --seed 7 --threads 2 --lambda 1e-3
          --output "${WORK_DIR}/fixed.csv"
  RESULT_VARIABLE fixed_code OUTPUT_VARIABLE fixed_out ERROR_VARIABLE fixed_err)
if(NOT fixed_code EQUAL 0)
  message(FATAL_ERROR "--lambda on the same input should succeed, got '${fixed_code}':\n${fixed_out}${fixed_err}")
endif()
