# Runs BIN --quick --json=OUT and checks the export it writes
# (harness/json_export.h): the file parses as schema_version 11, its
# top-level keys are exactly the v11 keys in order, and with OBS on its
# metrics count subplan executions. Used by the BenchJson test in
# bench/CMakeLists.txt.
file(REMOVE ${OUT})
execute_process(COMMAND ${BIN} --quick --json=${OUT}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --quick --json=${OUT}: exit ${rc}: ${err}")
endif()
file(READ ${OUT} doc)

# string(JSON) fails the script if the document does not parse.
string(JSON version GET "${doc}" schema_version)
if(NOT version EQUAL 11)
  message(FATAL_ERROR "${OUT}: schema_version ${version}, expected 11")
endif()

set(expected schema_version generator bench config results metrics spans)
list(LENGTH expected n_expected)
string(JSON n LENGTH "${doc}")
if(NOT n EQUAL n_expected)
  message(FATAL_ERROR "${OUT}: ${n} top-level keys, expected ${n_expected}")
endif()
# Each key must be present (string(JSON) fails the script otherwise).
# string(JSON MEMBER) lists keys sorted, so the order is read from the
# text: each key's first occurrence must follow the previous key's.
set(last -1)
foreach(key IN LISTS expected)
  string(JSON type TYPE "${doc}" ${key})
  string(FIND "${doc}" "\"${key}\":" pos)
  if(NOT pos GREATER last)
    message(FATAL_ERROR "${OUT}: top-level key ${key} is out of order")
  endif()
  set(last ${pos})
endforeach()

if(OBS)
  string(JSON execs GET "${doc}" metrics counters exec.subplan.executions)
  if(NOT execs GREATER 0)
    message(FATAL_ERROR "${OUT}: exec.subplan.executions is ${execs}")
  endif()
endif()
