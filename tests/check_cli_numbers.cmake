# Checks that one numeric flag of `alfi run-imgclass` refuses malformed
# values (the CliNumericFlag.* ctests, tests/CMakeLists.txt).
#
#   cmake -DALFI=<path to alfi> -DWORK_DIR=<scratch dir> -DFLAG=<flag>
#         "-DVALUES=<bad value>;..." -P check_cli_numbers.cmake
#
# In an empty WORK_DIR, `alfi run-imgclass --model lenet --<FLAG> <v>`
# must, for every v in VALUES, exit non-zero with a config error naming
# the flag, and start no campaign: no alfi_out/ and no alfi_cache/
# (training) may appear.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(problems "")

foreach(value IN LISTS VALUES)
  execute_process(COMMAND "${ALFI}" run-imgclass --model lenet --${FLAG} ${value}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    string(APPEND problems "\n  --${FLAG} ${value} exited 0")
  endif()
  if(NOT err MATCHES "config error: --${FLAG}")
    string(APPEND problems "\n  --${FLAG} ${value} gave no config error naming it: ${err}")
  endif()
endforeach()

foreach(dir alfi_out alfi_cache)
  if(EXISTS "${WORK_DIR}/${dir}")
    string(APPEND problems "\n  ${dir}/ was created: a campaign started")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
if(problems)
  message(FATAL_ERROR "alfi --${FLAG}:${problems}")
endif()
message(STATUS "alfi --${FLAG} refuses ${VALUES}")
