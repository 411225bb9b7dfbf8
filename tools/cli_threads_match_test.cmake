# Profile files and stdout do not depend on the thread count: `run` over
# two 60-gene conditions at a fixed --lambda and `stream` over a 60-gene
# record log, each at --threads 1, 3 and 4, must write identical files
# and print identical stdout (the stream session line states the thread
# count; that number is masked).
#
#   cmake -DCLI=<cellsync_deconvolve> -DWORK_DIR=<work dir> -P cli_threads_match_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(base 2.0 2.9 3.4 3.4 2.9 2.0 1.1 0.6 0.6 1.1 2.0 2.9 3.4)
set(genes 60)
math(EXPR last_gene "${genes} - 1")

# Gene g at sample m is base[(m + g) mod 13] with digit (g mod 10)
# appended: shifted, slightly scaled copies of one periodic profile.
set(header "time")
foreach(g RANGE ${last_gene})
  string(APPEND header ",g${g}")
endforeach()
set(panel_a "${header}\n")
set(panel_b "${header}\n")
set(records "time,gene,value\n")
foreach(m RANGE 12)
  math(EXPR t "15 * ${m}")
  set(row_a "${t}")
  set(row_b "${t}")
  foreach(g RANGE ${last_gene})
    math(EXPR i "(${m} + ${g}) % 13")
    math(EXPR j "(${m} + 2 * ${g}) % 13")
    math(EXPR d "${g} % 10")
    list(GET base ${i} a)
    list(GET base ${j} b)
    string(APPEND row_a ",${a}${d}")
    string(APPEND row_b ",${b}${d}")
    string(APPEND records "${t},g${g},${a}${d}\n")
  endforeach()
  string(APPEND panel_a "${row_a}\n")
  string(APPEND panel_b "${row_b}\n")
endforeach()
file(WRITE "${WORK_DIR}/a.csv" "${panel_a}")
file(WRITE "${WORK_DIR}/b.csv" "${panel_b}")
file(WRITE "${WORK_DIR}/records.csv" "${records}")

set(common --cells 4000 --bins 60 --seed 11 --lambda 1e-3)

function(run_cli mode threads)
  set(out_dir "${WORK_DIR}/${mode}${threads}")
  file(MAKE_DIRECTORY "${out_dir}")
  if(mode STREQUAL "run")
    set(args run --condition "a=${WORK_DIR}/a.csv"
             --condition "b=${WORK_DIR}/b.csv,cycle_minutes=130")
  else()
    set(args stream --input "${WORK_DIR}/records.csv" --times 0:180:13)
  endif()
  execute_process(
    COMMAND "${CLI}" ${args} ${common} --threads ${threads} --output "${out_dir}/p.csv"
    WORKING_DIRECTORY "${out_dir}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  message("${mode} --threads ${threads}:\n${out}${err}")
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${mode} --threads ${threads} exited '${code}'")
  endif()
  # Paths name the per-thread directory; the session line its threads.
  string(REPLACE "${out_dir}" "OUT" out "${out}")
  string(REGEX REPLACE "[0-9]+ worker threads" "N worker threads" out "${out}")
  file(WRITE "${out_dir}/stdout.txt" "${out}")
endfunction()

foreach(mode run stream)
  foreach(threads 1 3 4)
    run_cli(${mode} ${threads})
  endforeach()
  if(mode STREQUAL "run")
    set(outputs p.a.csv p.b.csv stdout.txt)
  else()
    set(outputs p.csv stdout.txt)
  endif()
  foreach(name ${outputs})
    if(NOT EXISTS "${WORK_DIR}/${mode}1/${name}")
      message(FATAL_ERROR "${mode} wrote no ${name}")
    endif()
    foreach(threads 3 4)
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/${mode}1/${name}"
                "${WORK_DIR}/${mode}${threads}/${name}"
        RESULT_VARIABLE differ)
      if(NOT differ EQUAL 0)
        message(FATAL_ERROR "${mode}: ${name} at --threads ${threads} differs from --threads 1")
      endif()
    endforeach()
  endforeach()
endforeach()
