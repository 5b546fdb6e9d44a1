# Runs BIN with the ;-separated ARGS and fails unless it exits with CODE
# and prints a usage line on stderr. Used by the bench flag-validation
# tests in bench/CMakeLists.txt.
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL CODE)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, expected ${CODE}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "${BIN} ${ARGS}: no usage line on stderr: ${err}")
endif()
