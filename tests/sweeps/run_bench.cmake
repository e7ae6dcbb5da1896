# Runs one bench binary and checks how it ended.
#
#   cmake -DBENCH=<exe> -DARGS=<arg;arg;...> [-DEXPECT_RC=<n>]
#         [-DEXPECT_STDERR=<regex>] [-DOUT=<file> -DGOLDEN=<file>]
#         -P run_bench.cmake
#
# Fails unless the exit code is EXPECT_RC (default 0), stderr matches
# EXPECT_STDERR when set, and, when GOLDEN is set, the file the bench wrote
# to OUT (its --json_out payload) equals GOLDEN byte for byte.
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()
if(DEFINED OUT)
  file(REMOVE "${OUT}")
endif()
execute_process(COMMAND "${BENCH}" ${ARGS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${BENCH} exited with '${rc}', expected ${EXPECT_RC}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}'")
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}" "${GOLDEN}" RESULT_VARIABLE differs)
  if(differs)
    file(READ "${OUT}" got)
    file(READ "${GOLDEN}" want)
    message(FATAL_ERROR "payload differs from ${GOLDEN}\n"
                        "got:  ${got}want: ${want}")
  endif()
endif()
