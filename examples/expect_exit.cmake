# Run one command and require an exact exit code — a crash or an abort is
# non-zero too, so "any failure" would not tell a usage error from a crash.
#   cmake -DEXPECT=2 -DCMD="prog;arg;..." -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${code}': ${err}")
endif()
