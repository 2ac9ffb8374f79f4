# CLI regression check: unknown flags and enum values must be
# usage errors — exit code 2 and a diagnostic that names the flag — across
# every tool, never silently ignored, never a fall-through to a default, and
# never a generic CheckError (exit 1). A malformed or out-of-range numeric
# value is a CheckError: exit 1 with a diagnostic, never a crash and never a
# run with a misparsed value. A bench's own flag reaches the bench. tlpbench
# takes no positional argument, and a boolean flag takes only a boolean
# value. Invoked by ctest as
#   cmake -DTLPBENCH=... -DTLPGNN_CLI=... -DTLPSERVE=... -DTLPFUZZ=...
#         -DTLPLINT=... -DBASELINE=... -P check_cli_enums.cmake

# Case 1: tlpbench rejects an unknown flag (here --timing-tier) before any
# bench runs.
set(unused_report "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_unused.json")
file(REMOVE "${unused_report}")
execute_process(
  COMMAND "${TLPBENCH}" --only table1 --max-edges 5000
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
# runs the requested traffic length, not its default of 120. Counted from
# the report, not from announced text: the fault-free run's five outcome
# counts must sum to 7.
set(requests_report "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_requests.json")
file(REMOVE "${requests_report}")
execute_process(
  COMMAND "${TLPBENCH}" --only serve --max-edges 20000 --requests 7
          --no-assert --out "${requests_report}"
  RESULT_VARIABLE rc6
  ERROR_VARIABLE err6
  OUTPUT_QUIET)
if(NOT rc6 EQUAL 0)
  message(FATAL_ERROR "tlpbench --requests 7: expected exit 0, got ${rc6} "
                      "(${err6})")
endif()
file(READ "${requests_report}" json6)
string(JSON records6 GET "${json6}" benches 0 records)
string(JSON nrecords6 LENGTH "${records6}")
set(served6 "")
math(EXPR last6 "${nrecords6} - 1")
foreach(i RANGE ${last6})
  string(JSON variant6 GET "${records6}" ${i} variant)
  if(variant6 STREQUAL "fault_free")
    set(served6 0)
    foreach(outcome ok retried degraded rejected failed)
      string(JSON n6 GET "${records6}" ${i} values ${outcome})
      math(EXPR served6 "${served6} + ${n6}")
    endforeach()
  endif()
endforeach()
if(NOT served6 STREQUAL "7")
  message(FATAL_ERROR
          "tlpbench --only serve --requests 7: the fault-free run's outcome "
          "counts sum to '${served6}', not 7")
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

# Case 9: tlpbench takes no positional argument. A misspelt one must not be
# dropped while the rest of the command line runs.
file(REMOVE "${unused_report}")
execute_process(
  COMMAND "${TLPBENCH}" tabel1 --only table3 --max-edges 5000
          --out "${unused_report}" --baseline "${BASELINE}"
  RESULT_VARIABLE rc9
  ERROR_VARIABLE err9
  OUTPUT_QUIET)
if(NOT rc9 EQUAL 2)
  message(FATAL_ERROR "tlpbench tabel1: expected exit 2, got ${rc9}")
endif()
if(NOT err9 MATCHES "tabel1")
  message(FATAL_ERROR
          "tlpbench tabel1: diagnostic must name the argument, got: ${err9}")
endif()
if(EXISTS "${unused_report}")
  message(FATAL_ERROR "tlpbench with a positional argument wrote a report")
endif()

# Case 10: a boolean flag with an unrecognised value is a usage error, not a
# silent false: `--list foo` must not run the benches.
execute_process(
  COMMAND "${TLPBENCH}" --list foo --only table3 --max-edges 5000
          --out "${unused_report}" --baseline "${BASELINE}"
  RESULT_VARIABLE rc10
  ERROR_VARIABLE err10
  OUTPUT_QUIET)
if(NOT rc10 EQUAL 2)
  message(FATAL_ERROR "tlpbench --list foo: expected exit 2, got ${rc10}")
endif()
if(NOT err10 MATCHES "--list")
  message(FATAL_ERROR
          "tlpbench --list foo: diagnostic must name the flag, got: ${err10}")
endif()
if(EXISTS "${unused_report}")
  message(FATAL_ERROR "tlpbench --list foo wrote a report; it must not")
endif()

# Cases 11-13: tlpgnn_cli gen rejects what graph::power_law cannot take, as
# a flag error (exit 1) before anything is written: a vertex count that
# does not fit the 32-bit vertex id, fewer than 2 vertices, and a power-law
# exponent that is not above 1.
function(expect_gen_rejected flag)
  set(gen_el "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_gen.el")
  file(REMOVE "${gen_el}")
  execute_process(
    COMMAND "${TLPGNN_CLI}" gen --out "${gen_el}" ${ARGN}
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "tlpgnn_cli gen ${ARGN}: expected exit 1, got ${rc} (${err})")
  endif()
  if(NOT err MATCHES "flag --${flag}")
    message(FATAL_ERROR
            "tlpgnn_cli gen ${ARGN}: diagnostic must name --${flag}, got: "
            "${err}")
  endif()
  if(EXISTS "${gen_el}")
    message(FATAL_ERROR "rejected tlpgnn_cli gen ${ARGN} wrote ${gen_el}")
  endif()
endfunction()
expect_gen_rejected(vertices --vertices 4294967301 --edges 10)
expect_gen_rejected(vertices --vertices 1)
expect_gen_rejected(alpha --alpha 0.5)

# Case 14: tlpfuzz maps a malformed number to exit 1 naming the flag. The
# checked getters used to run outside main's try and abort the process.
execute_process(
  COMMAND "${TLPFUZZ}" --seed abc
  RESULT_VARIABLE rc14
  ERROR_VARIABLE err14
  OUTPUT_QUIET)
if(NOT rc14 EQUAL 1)
  message(FATAL_ERROR "tlpfuzz --seed abc: expected exit 1, got ${rc14}")
endif()
if(NOT err14 MATCHES "flag --seed")
  message(FATAL_ERROR
          "tlpfuzz --seed abc: diagnostic must name --seed, got: ${err14}")
endif()

# Case 15: tlpfuzz's boolean flags take only boolean values.
execute_process(
  COMMAND "${TLPFUZZ}" --expect-bugs maybe
  RESULT_VARIABLE rc15
  ERROR_VARIABLE err15
  OUTPUT_QUIET)
if(NOT rc15 EQUAL 2)
  message(FATAL_ERROR "tlpfuzz --expect-bugs maybe: expected exit 2, got ${rc15}")
endif()

# Case 16: `--expect-bugs no` turns the self-check off: a zero-iteration
# campaign runs instead and writes a campaign report.
set(fuzz_report "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_fuzz.json")
file(REMOVE "${fuzz_report}")
execute_process(
  COMMAND "${TLPFUZZ}" --expect-bugs no --iters 0 --json "${fuzz_report}"
  RESULT_VARIABLE rc16
  OUTPUT_VARIABLE out16
  ERROR_VARIABLE err16)
if(NOT rc16 EQUAL 0)
  message(FATAL_ERROR
          "tlpfuzz --expect-bugs no: expected exit 0, got ${rc16} (${err16})")
endif()
if(out16 MATCHES "seeded-bug kernels")
  message(FATAL_ERROR "tlpfuzz --expect-bugs no ran the self-check: ${out16}")
endif()
if(NOT EXISTS "${fuzz_report}")
  message(FATAL_ERROR "tlpfuzz --expect-bugs no wrote no report")
endif()
file(READ "${fuzz_report}" json16)
string(JSON mode16 GET "${json16}" mode)
if(NOT mode16 STREQUAL "fuzz")
  message(FATAL_ERROR
          "tlpfuzz --expect-bugs no wrote a '${mode16}' report, not a campaign")
endif()
file(REMOVE "${fuzz_report}")

# Case 16b: the --expect-bugs battery is fixed, so a campaign flag next to it
# is a usage error naming the flag, before anything runs or writes a report.
function(expect_fuzz_self_check_rejected flag)
  file(REMOVE "${fuzz_report}")
  execute_process(
    COMMAND "${TLPFUZZ}" --expect-bugs ${ARGN} --json "${fuzz_report}"
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "tlpfuzz --expect-bugs ${ARGN}: expected exit 2, got ${rc}")
  endif()
  if(NOT err MATCHES "flag --${flag}")
    message(FATAL_ERROR
            "tlpfuzz --expect-bugs ${ARGN}: diagnostic must name --${flag}, "
            "got: ${err}")
  endif()
  if(EXISTS "${fuzz_report}")
    message(FATAL_ERROR "rejected tlpfuzz --expect-bugs ${ARGN} wrote a report")
  endif()
endfunction()
expect_fuzz_self_check_rejected(iters --iters 1)
expect_fuzz_self_check_rejected(repro
  --repro "${CMAKE_CURRENT_LIST_DIR}/../repros/case_4445_ring_shrink.el")

# Case 17: tlplint rejects a non-boolean --serve before any analysis runs.
execute_process(
  COMMAND "${TLPLINT}" --serve maybe
  RESULT_VARIABLE rc17
  ERROR_VARIABLE err17
  OUTPUT_QUIET)
if(NOT rc17 EQUAL 2)
  message(FATAL_ERROR "tlplint --serve maybe: expected exit 2, got ${rc17}")
endif()
if(NOT err17 MATCHES "flag --serve" OR err17 MATCHES "analyzing")
  message(FATAL_ERROR
          "tlplint --serve maybe: must name --serve before any analysis, "
          "got: ${err17}")
endif()

# Cases 18-21: tlpserve rejects a flag it would not read, before any work:
# exit `code`, a diagnostic naming `--flag`, no SLO table and no --json
# report. In cases 19-21 a flag of a group without the group's anchor is a
# usage error, never a CHECK failure (exit 1) and never a flag silently
# dropped.
set(serve_report "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_serve.json")
function(expect_tlpserve_rejected code flag)
  file(REMOVE "${serve_report}")
  execute_process(
    COMMAND "${TLPSERVE}" --max-edges 2000 --requests 4 ${ARGN}
            --json "${serve_report}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  list(JOIN ARGN " " args)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR "tlpserve ${args}: expected exit ${code}, got ${rc}")
  endif()
  if(NOT err MATCHES "flag --${flag}")
    message(FATAL_ERROR
            "tlpserve ${args}: diagnostic must name --${flag}, got: ${err}")
  endif()
  if(out MATCHES "SLO metric")
    message(FATAL_ERROR "rejected tlpserve ${args} printed an SLO table")
  endif()
  if(EXISTS "${serve_report}")
    message(FATAL_ERROR "rejected tlpserve ${args} wrote a report")
  endif()
endfunction()
# Case 18: one partition is the direct path, so the fallback's first part
# count starts at 2 (1 used to run as 2). An out-of-range value exits 1.
expect_tlpserve_rejected(1 partitions --partitions 1)
# Case 19: the storm flags need --storm-at, and --storm-at needs a fault
# period.
expect_tlpserve_rejected(2 storm-oom-every --storm-oom-every 60)
expect_tlpserve_rejected(2 storm-oom-burst --storm-oom-burst 4)
expect_tlpserve_rejected(2 storm-at --storm-at 2)
# Case 20: the cache flags need --cache-policy.
expect_tlpserve_rejected(2 cache-ratio --cache-ratio 0.2)
# Case 21: the burst-shape flags need --arrival bursty.
expect_tlpserve_rejected(2 burst-len --burst-len 3)
expect_tlpserve_rejected(2 burst-speedup --arrival poisson --burst-speedup 2)
expect_tlpserve_rejected(2 idle-gap-ms --idle-gap-ms 5)
