# Checks that every test binary lists the same test names in every
# process (the StableTestNames ctest, tests/CMakeLists.txt).
#
#   cmake -DTEST_DIR=<dir> -DTESTS=<name>:<name>:... -P check_test_names.cmake
#
# Each binary's --gtest_list_tests runs twice; the script fails when
# the two listings differ or when a listing prints a pointer-valued
# parameter ("# GetParam() = 0x..."), whose address changes per run.
string(REPLACE ":" ";" tests "${TESTS}")
set(problems "")
foreach(name IN LISTS tests)
  set(binary "${TEST_DIR}/${name}")
  execute_process(COMMAND "${binary}" --gtest_list_tests
                  OUTPUT_VARIABLE first RESULT_VARIABLE first_rc)
  execute_process(COMMAND "${binary}" --gtest_list_tests
                  OUTPUT_VARIABLE second RESULT_VARIABLE second_rc)
  if(NOT first_rc EQUAL 0 OR NOT second_rc EQUAL 0)
    string(APPEND problems "\n  ${name}: --gtest_list_tests failed (${first_rc}, ${second_rc})")
  elseif(NOT first STREQUAL second)
    string(APPEND problems "\n  ${name}: two listings differ")
  endif()
  if(first MATCHES "GetParam\\(\\) = (0x[0-9a-fA-F]+)")
    string(APPEND problems
      "\n  ${name}: pointer-valued test parameter ${CMAKE_MATCH_1}; give the parameter type a PrintTo")
  endif()
endforeach()
if(problems)
  message(FATAL_ERROR "unstable test names:${problems}")
endif()
list(LENGTH tests count)
message(STATUS "${count} test binaries list stable names")
