# CLI regression check: a --only selection that matches nothing must fail
# with exit code 2 and a loud diagnostic, never write an empty report that
# would vacuously pass every shape assertion. Invoked by ctest as
#   cmake -DTLPBENCH=... -DBASELINE=... -P check_only_no_match.cmake

# Case 1: a name that is not a bench.
execute_process(
  COMMAND "${TLPBENCH}" --only no_such_bench
          --out "${CMAKE_CURRENT_BINARY_DIR}/only_no_match.json"
          --baseline "${BASELINE}"
  RESULT_VARIABLE rc1
  ERROR_VARIABLE err1
  OUTPUT_QUIET)
if(NOT rc1 EQUAL 2)
  message(FATAL_ERROR "unknown --only name: expected exit 2, got ${rc1}")
endif()
if(NOT err1 MATCHES "unknown bench")
  message(FATAL_ERROR "unknown --only name: missing diagnostic, got: ${err1}")
endif()

# Case 2: an empty selection (no names survive CSV parsing).
execute_process(
  COMMAND "${TLPBENCH}" --only ""
          --out "${CMAKE_CURRENT_BINARY_DIR}/only_no_match.json"
          --baseline "${BASELINE}"
  RESULT_VARIABLE rc2
  ERROR_VARIABLE err2
  OUTPUT_QUIET)
if(NOT rc2 EQUAL 2)
  message(FATAL_ERROR "empty --only selection: expected exit 2, got ${rc2}")
endif()
if(NOT err2 MATCHES "matched no benchmarks")
  message(FATAL_ERROR "empty --only selection: missing diagnostic, got: ${err2}")
endif()

# The failed runs must not have left a report behind.
if(EXISTS "${CMAKE_CURRENT_BINARY_DIR}/only_no_match.json")
  message(FATAL_ERROR "zero-match run wrote a report file; it must not")
endif()
