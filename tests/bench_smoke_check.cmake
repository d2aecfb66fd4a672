# Smoke checks on the bench binaries' command line and exports, run as ctest
# script entries:
#
#   cmake -DCASE=<case> -DBIN=<binary> [-DCHECK=<bench_export_check>]
#         -DWORK_DIR=<scratch> -P bench_smoke_check.cmake
#
# Cases:
#   bench             table0_switch_cost and table2_syscall (BIN, BIN2) with
#                     --json: each export has the schema tag, runs, a label
#                     and values on every run, and counters on some run
#   fault_run_a/_b    fig12_highload --faults bootstorm --json, twice into a
#                     shared WORK_DIR (run a also writes the Chrome trace
#                     with the flight overlay, the postmortem to open when
#                     fault_check fails)
#   fault_check       run a's export: injection fired, the recovery
#                     protocols ran, kvm-ept (NST) OOM-killed guests while
#                     pvm (NST) booted every container; and run b's export is
#                     byte-identical to run a's (deterministic injection)
#   faults_any_binary table4b_network --faults latency --json: the plan is
#                     armed on a binary other than fig12 (injection fired)
#   cli_unknown_flag, cli_missing_value, cli_bad_ts_window,
#   cli_bad_flight_capacity, cli_bad_faults
#                     a malformed command line exits 2 with a message
#   simcore_flags     simcore_micro takes every bench flag and hands the rest
#                     to google-benchmark

if(NOT DEFINED CASE OR NOT DEFINED BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "bench_smoke_check.cmake needs -DCASE -DBIN -DWORK_DIR")
endif()

# The fault cases share WORK_DIR across three tests; the others own theirs.
if(NOT CASE MATCHES "^fault_")
  file(REMOVE_RECURSE "${WORK_DIR}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs BIN with ARGN from WORK_DIR, asserts the exit code, returns stdout and
# stderr in `out_var`.
function(run_bench expect_rc out_var)
  execute_process(COMMAND "${BIN}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "${BIN} ${ARGN}: expected exit ${expect_rc}, got ${rc}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

function(check_export file)
  execute_process(COMMAND "${CHECK}" "${WORK_DIR}/${file}" ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${file}: export check failed (exit ${rc})\n${out}${err}")
  endif()
  message(STATUS "${file}:\n${out}")
endfunction()

function(expect_rejected needle)
  run_bench(2 out ${ARGN})
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${BIN} ${ARGN}: message lacks \"${needle}\":\n${out}")
  endif()
  message(STATUS "rejected with exit 2: ${ARGN}")
endfunction()

if(CASE STREQUAL "bench")
  run_bench(0 out --json table0_switch_cost.json)
  set(BIN "${BIN2}")
  run_bench(0 out --json table2_syscall.json)
  foreach(file table0_switch_cost.json table2_syscall.json)
    check_export(${file} schema runs labeled counters)
  endforeach()

elseif(CASE STREQUAL "fault_run_a")
  file(REMOVE "${WORK_DIR}/fig12_a.json" "${WORK_DIR}/fig12_trace.json")
  run_bench(0 out --faults bootstorm --json fig12_a.json --trace fig12_trace.json)

elseif(CASE STREQUAL "fault_run_b")
  file(REMOVE "${WORK_DIR}/fig12_b.json")
  run_bench(0 out --faults bootstorm --json fig12_b.json)

elseif(CASE STREQUAL "fault_check")
  check_export(fig12_a.json schema runs
               counter-sum:fault_injected counter-sum:frame_reclaim
               "counter-sum:guest_oom_kill@kvm-ept (NST)"
               "values-zero:failed_boots@pvm (NST)")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${WORK_DIR}/fig12_a.json" "${WORK_DIR}/fig12_b.json"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "fig12 bootstorm replay is not byte-identical")
  endif()
  message(STATUS "byte-identical: fig12 bootstorm replay")

elseif(CASE STREQUAL "faults_any_binary")
  run_bench(0 out --faults latency --json table4b_network.json)
  check_export(table4b_network.json schema runs counter-sum:fault_injected)

elseif(CASE STREQUAL "cli_unknown_flag")
  expect_rejected("unknown argument '--jsn'" --jsn x.json)
  if(EXISTS "${WORK_DIR}/x.json")
    message(FATAL_ERROR "a rejected command line still wrote x.json")
  endif()

elseif(CASE STREQUAL "cli_missing_value")
  expect_rejected("missing value for --json" --report --json)

elseif(CASE STREQUAL "cli_bad_ts_window")
  expect_rejected("bad --ts-window value 'abc'" --ts-window abc)

elseif(CASE STREQUAL "cli_bad_flight_capacity")
  expect_rejected("bad --flight-capacity value 'abc'" --flight-capacity abc)

elseif(CASE STREQUAL "cli_bad_faults")
  expect_rejected("bad --faults plan 'bogus'" --faults bogus)

elseif(CASE STREQUAL "simcore_flags")
  run_bench(0 out --benchmark_filter=BM_TlbLookupHit$ --benchmark_min_time=0.01
            --json micro.json --trace trace.json --report --faults latency --alloc-stats
            --timeseries ts.json --ts-window 1000 --slo "boot:boot_latency_ns:p99<=15ms"
            --flight-capacity 64 --profile profile.json)
  string(FIND "${out}" "unrecognized" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR "simcore_micro rejected a bench flag:\n${out}")
  endif()
  foreach(file micro.json ts.json profile.json)
    if(NOT EXISTS "${WORK_DIR}/${file}")
      message(FATAL_ERROR "simcore_micro did not write ${file}:\n${out}")
    endif()
  endforeach()
  check_export(micro.json schema runs labeled)

else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
