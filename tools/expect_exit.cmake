# expect_exit.cmake — run one command and fail unless it exits with EXPECT.
#
#   cmake -DEXPECT=2 -DPROG=path/to/tool -DARG=--flag=value -P expect_exit.cmake
#
# The command is killed after 20 s, which reads as a failure, so a run that
# should have been refused cannot hang the suite.
execute_process(COMMAND ${PROG} ${ARG} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err TIMEOUT 20)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${PROG} ${ARG}: exit '${rc}', expected ${EXPECT}\n${err}")
endif()
