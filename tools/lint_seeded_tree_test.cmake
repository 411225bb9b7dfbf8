# The repo-policy token rules end to end, through the analyzer's real
# tree walk, report and exit code: a scratch tree seeded with one
# violation of each rule must report exactly those lines (exit 1), and
# the same tree with every seeded line carrying its escape comment
# (`cellsync-lint: allow(<rule-id>)`) must scan clean (exit 0). Out of
# scope lines (src/-only rules in tools/) are seeded too and must stay
# unreported.
#
#   cmake -DARCHCHECK=<cellsync_archcheck> -DWORK_DIR=<work dir> -P lint_seeded_tree_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
set(manifest "module core layer 0 deps =\n")
file(WRITE "${WORK_DIR}/seeded/src/layers.manifest" "${manifest}")
file(WRITE "${WORK_DIR}/escaped/src/layers.manifest" "${manifest}")

# seed(<file> <rule-id or "none"> <comment leader> <line>): appends the
# line to <file> in both trees (escaped in the second) and records the
# finding the seeded tree must report.
set_property(GLOBAL PROPERTY expected_findings "")
function(seed file rule leader code)
  get_property(count GLOBAL PROPERTY "line_count:${file}")
  if(NOT count)
    set(count 0)
  endif()
  math(EXPR count "${count} + 1")
  set_property(GLOBAL PROPERTY "line_count:${file}" ${count})
  file(APPEND "${WORK_DIR}/seeded/${file}" "${code}\n")
  if(rule STREQUAL "none")
    file(APPEND "${WORK_DIR}/escaped/${file}" "${code}\n")
  else()
    file(APPEND "${WORK_DIR}/escaped/${file}"
         "${code}  ${leader} cellsync-lint: allow(${rule})\n")
    set_property(GLOBAL APPEND PROPERTY expected_findings "${file}:${count}: [${rule}]")
  endif()
endfunction()

seed(src/core/seeded.cpp number-parse "//"
     "double parse(const std::string& s) { return std::stod(s); }")
seed(src/core/seeded.cpp nondeterminism "//" "int draw() { return std::rand(); }")
seed(src/core/seeded.cpp fast-math "//" "#pragma STDC FP_CONTRACT ON")
seed(src/core/seeded.cpp naked-mutex "//" "std::mutex guard;")
seed(src/core/seeded.cpp clock "//" "auto started = std::chrono::steady_clock::now();")
seed(src/core/seeded.cpp simd "//" "#include <immintrin.h>")
seed(tools/seeded_tool.cpp number-parse "//" "double d = strtod(text, nullptr);")
seed(tools/seeded_tool.cpp none "//" "std::mutex tool_guard;")
seed(tools/seeded_tool.cpp none "//" "std::unordered_map<int, int> counts;")
seed(CMakeLists.txt fast-math "#" "add_compile_options(-Ofast)")
get_property(expected GLOBAL PROPERTY expected_findings)
list(LENGTH expected expected_count)

execute_process(COMMAND "${ARCHCHECK}" "${WORK_DIR}/seeded"
                RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
message("seeded tree:\n${stdout}${stderr}")
if(NOT code EQUAL 1)
  message(FATAL_ERROR "seeded tree: expected exit 1, got '${code}'")
endif()
foreach(finding IN LISTS expected)
  string(FIND "${stderr}" "${finding} forbidden '" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "seeded tree: '${finding}' not reported")
  endif()
endforeach()
if(NOT stderr MATCHES "cellsync_archcheck: ${expected_count} finding\\(s\\) in 3 files")
  message(FATAL_ERROR "seeded tree: expected ${expected_count} findings in 3 files")
endif()

execute_process(COMMAND "${ARCHCHECK}" "${WORK_DIR}/escaped"
                RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
message("escaped tree:\n${stdout}${stderr}")
if(NOT code EQUAL 0)
  message(FATAL_ERROR "escaped tree: expected exit 0, got '${code}'")
endif()
if(NOT stdout MATCHES "3 files clean")
  message(FATAL_ERROR "escaped tree: expected '3 files clean'")
endif()
