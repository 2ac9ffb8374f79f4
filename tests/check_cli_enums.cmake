# CLI regression check: unknown flags and enum values must be
# usage errors — exit code 2 and a diagnostic that names the flag — across
# every tool, never silently ignored, never a fall-through to a default, and
# never a generic CheckError (exit 1). A malformed or out-of-range numeric
# value is a CheckError: exit 1 with a diagnostic, never a crash and never a
# run with a misparsed value. A bench's own flag reaches the bench. Invoked
# by ctest as
#   cmake -DTLPBENCH=... -DTLPGNN_CLI=... -DTLPSERVE=... -DBASELINE=...
#         -P check_cli_enums.cmake

# Case 1: tlpbench rejects an unknown flag (here --timing-tier) before any
# bench runs.
set(unused_report "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_unused.json")
file(REMOVE "${unused_report}")
execute_process(
  COMMAND "${TLPBENCH}" run --only table1 --max-edges 5000
          --timing-tier analytical
          --out "${unused_report}"
          --baseline "${BASELINE}"
  RESULT_VARIABLE rc1
  ERROR_VARIABLE err1
  OUTPUT_QUIET)
if(NOT rc1 EQUAL 2)
  message(FATAL_ERROR "tlpbench --timing-tier: expected exit 2, got ${rc1}")
endif()
if(NOT err1 MATCHES "unknown flag --timing-tier")
  message(FATAL_ERROR
          "tlpbench --timing-tier: diagnostic must name the flag, got: "
          "${err1}")
endif()
# The rejected run must not have left a report behind.
if(EXISTS "${unused_report}")
  message(FATAL_ERROR "rejected tlpbench run wrote a report; it must not")
endif()

# Case 2: tlpgnn_cli rejects the same unknown flag.
execute_process(
  COMMAND "${TLPGNN_CLI}" run --max-edges 2000 --timing-tier analytical
  RESULT_VARIABLE rc2
  ERROR_VARIABLE err2
  OUTPUT_QUIET)
if(NOT rc2 EQUAL 2)
  message(FATAL_ERROR
          "tlpgnn_cli run --timing-tier: expected exit 2, got ${rc2}")
endif()
if(NOT err2 MATCHES "unknown flag --timing-tier")
  message(FATAL_ERROR
          "tlpgnn_cli run --timing-tier: diagnostic must name the flag, got: "
          "${err2}")
endif()

# Case 3: tlpserve --cache-policy, the pre-existing enum flag swept into the
# same checked-getter path.
execute_process(
  COMMAND "${TLPSERVE}" --max-edges 2000 --requests 4
          --cache-policy lru
  RESULT_VARIABLE rc3
  ERROR_VARIABLE err3
  OUTPUT_QUIET)
if(NOT rc3 EQUAL 2)
  message(FATAL_ERROR "tlpserve bad --cache-policy: expected exit 2, got ${rc3}")
endif()
if(NOT err3 MATCHES "cache-policy" OR NOT err3 MATCHES "valid:.*presample")
  message(FATAL_ERROR
          "tlpserve bad --cache-policy: diagnostic must name the flag and "
          "the valid set, got: ${err3}")
endif()

# Case 4: tlpgnn_cli gen has no MatrixMarket writer, so --format mtx is a
# usage error naming the valid set, and no file is written.
set(gen_mtx "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_gen.mtx")
file(REMOVE "${gen_mtx}")
execute_process(
  COMMAND "${TLPGNN_CLI}" gen --vertices 100 --edges 400
          --format mtx --out "${gen_mtx}"
  RESULT_VARIABLE rc4
  ERROR_VARIABLE err4
  OUTPUT_QUIET)
if(NOT rc4 EQUAL 2)
  message(FATAL_ERROR "tlpgnn_cli gen --format mtx: expected exit 2, got ${rc4}")
endif()
if(NOT err4 MATCHES "format" OR NOT err4 MATCHES "valid: el, bin")
  message(FATAL_ERROR
          "tlpgnn_cli gen --format mtx: diagnostic must name the flag and "
          "the valid set, got: ${err4}")
endif()
if(EXISTS "${gen_mtx}")
  message(FATAL_ERROR "rejected tlpgnn_cli gen wrote ${gen_mtx}; it must not")
endif()

# Case 5: a valid format still parses, so the checked getter is not stricter
# than the documented set.
set(gen_bin "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_gen.bin")
execute_process(
  COMMAND "${TLPGNN_CLI}" gen --vertices 100 --edges 400
          --format bin --out "${gen_bin}"
  RESULT_VARIABLE rc5
  ERROR_VARIABLE err5
  OUTPUT_QUIET)
if(NOT rc5 EQUAL 0)
  message(FATAL_ERROR
          "tlpgnn_cli gen --format bin: expected exit 0, got ${rc5} (${err5})")
endif()
file(REMOVE "${gen_bin}")

# Case 6: a bench's own flag reaches it through tlpbench: the serve bench
# runs the requested traffic length, not its default of 120.
set(requests_report "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_requests.json")
execute_process(
  COMMAND "${TLPBENCH}" --only serve --max-edges 20000 --requests 7
          --no-assert --out "${requests_report}"
  RESULT_VARIABLE rc6
  OUTPUT_VARIABLE out6
  ERROR_VARIABLE err6)
if(NOT rc6 EQUAL 0)
  message(FATAL_ERROR "tlpbench --requests 7: expected exit 0, got ${rc6} "
                      "(${err6})")
endif()
if(NOT out6 MATCHES "\\| 7 requests")
  message(FATAL_ERROR
          "tlpbench --only serve --requests 7: the serve bench did not run "
          "7 requests, got: ${out6}")
endif()
file(REMOVE "${requests_report}")

# Case 7: a malformed numeric value is rejected before the bench runs on a
# misparsed replica: exit 1, the diagnostic names the flag, no report.
set(bad_edges_report "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_bad_edges.json")
file(REMOVE "${bad_edges_report}")
execute_process(
  COMMAND "${TLPBENCH}" --only table1 --max-edges abc
          --out "${bad_edges_report}" --baseline "${BASELINE}"
  RESULT_VARIABLE rc7
  ERROR_VARIABLE err7
  OUTPUT_QUIET)
if(NOT rc7 EQUAL 1)
  message(FATAL_ERROR "tlpbench --max-edges abc: expected exit 1, got ${rc7}")
endif()
if(NOT err7 MATCHES "max-edges")
  message(FATAL_ERROR
          "tlpbench --max-edges abc: diagnostic must name the flag, got: "
          "${err7}")
endif()
if(EXISTS "${bad_edges_report}")
  message(FATAL_ERROR "rejected tlpbench run wrote a report; it must not")
endif()

# Case 8: an out-of-range value exits 1 with a diagnostic, not SIGABRT (134).
execute_process(
  COMMAND "${TLPBENCH}" --only table1 --max-edges 5000 --seed -1
          --out "${bad_edges_report}" --baseline "${BASELINE}"
  RESULT_VARIABLE rc8
  ERROR_VARIABLE err8
  OUTPUT_QUIET)
if(NOT rc8 EQUAL 1)
  message(FATAL_ERROR "tlpbench --seed -1: expected exit 1, got ${rc8}")
endif()
if(NOT err8 MATCHES "seed")
  message(FATAL_ERROR
          "tlpbench --seed -1: diagnostic must name the flag, got: ${err8}")
endif()
