# Checks the alfi CLI's option handling (the CliFlags ctest,
# tests/CMakeLists.txt).
#
#   cmake -DALFI=<path to alfi> -DWORK_DIR=<scratch dir> -P check_cli_flags.cmake
#
# In an empty WORK_DIR: `alfi run-imgclass --help` must print the usage
# and exit 0, and `alfi run-imgclass --unit-batc 4` (a misspelt flag)
# and `alfi run-imgclass --checkpoint-every 4` (a removed flag: the
# journal's fsync cadence is fixed) must fail naming the flag.  None may
# start a campaign: no alfi_out/ and no alfi_cache/ (training) may
# appear.
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

foreach(flag unit-batc checkpoint-every)
  execute_process(COMMAND "${ALFI}" run-imgclass --${flag} 4
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE flag_out ERROR_VARIABLE flag_err
                  RESULT_VARIABLE flag_rc)
  if(flag_rc EQUAL 0)
    string(APPEND problems "\n  an unknown flag (--${flag}) exited 0")
  endif()
  if(NOT flag_err MATCHES "--${flag}")
    string(APPEND problems "\n  the --${flag} error does not name it: ${flag_err}")
  endif()
endforeach()

foreach(dir alfi_out alfi_cache)
  if(EXISTS "${WORK_DIR}/${dir}")
    string(APPEND problems "\n  ${dir}/ was created: a campaign started")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
if(problems)
  message(FATAL_ERROR "alfi option handling:${problems}")
endif()
message(STATUS "alfi --help and unknown flags start no campaign")
