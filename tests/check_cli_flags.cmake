# Checks the alfi CLI's option handling (the CliFlags ctest,
# tests/CMakeLists.txt).
#
#   cmake -DALFI=<path to alfi> -DWORK_DIR=<scratch dir> -P check_cli_flags.cmake
#
# In an empty WORK_DIR: `alfi run-imgclass --help` must print the usage
# and exit 0, and `alfi run-imgclass --unit-batc 4` (a misspelt flag)
# must fail naming the flag.  Neither may start a campaign: no
# alfi_out/ and no alfi_cache/ (training) may appear.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(problems "")

execute_process(COMMAND "${ALFI}" run-imgclass --help
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_VARIABLE help_out ERROR_VARIABLE help_err
                RESULT_VARIABLE help_rc)
if(NOT help_rc EQUAL 0)
  string(APPEND problems "\n  --help exited ${help_rc}, expected 0")
endif()
if(NOT help_out MATCHES "usage: alfi")
  string(APPEND problems "\n  --help printed no usage on stdout")
endif()

execute_process(COMMAND "${ALFI}" run-imgclass --unit-batc 4
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_VARIABLE typo_out ERROR_VARIABLE typo_err
                RESULT_VARIABLE typo_rc)
if(typo_rc EQUAL 0)
  string(APPEND problems "\n  a misspelt flag (--unit-batc) exited 0")
endif()
if(NOT typo_err MATCHES "--unit-batc")
  string(APPEND problems "\n  the misspelt flag's error does not name it: ${typo_err}")
endif()

foreach(dir alfi_out alfi_cache)
  if(EXISTS "${WORK_DIR}/${dir}")
    string(APPEND problems "\n  ${dir}/ was created: a campaign started")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
if(problems)
  message(FATAL_ERROR "alfi option handling:${problems}")
endif()
message(STATUS "alfi --help and misspelt flags start no campaign")
