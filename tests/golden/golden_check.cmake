# Golden byte-identity harness for the simulator-core overhaul.
#
# Every deterministic artifact the repo ships — bench JSON exports, the
# simcheck sweep report, postmortem dumps — must be byte-identical across
# the calendar-queue/slab-allocator swap and across worker counts. These
# checks run a binary against the checked-in goldens with `cmake -E
# compare_files` (exact bytes, no tolerance).
#
# Invoked as a ctest entry:
#
#   cmake -DCASE=<pvmtop|table0|fig10|simcheck|fleet|profile|digest> -DBIN=<binary>
#         -DJOBS=<n> -DNAME=<digest name>
#         -DGOLDEN_DIR=<srcdir>/tests/golden -DWORK_DIR=<scratch>
#         -P golden_check.cmake
#
# Cases:
#   pvmtop    pvm-top over the checked-in pvm.timeseries.v1 fixture, vs
#             pvm_top_fixture.txt (dashboard rendering is part of the
#             deterministic surface)
#   table0    table0_switch_cost --json, vs table0_switch_cost.json; its
#             stdout vs the table0_switch_cost/ digests
#   fig10     PVM_BENCH_SCALE=0.01 fig10_pagefault_scaling --json, vs the
#             tarball's fig10_pagefault_scaling_scale001.json; its stdout vs
#             the fig10_pagefault_scaling/ digests
#   simcheck  3-seed corrupting sweep (exit 1 expected) from a controlled
#             cwd with a relative --postmortem-dir, at --jobs ${JOBS}:
#             stdout vs simcheck_sweep.txt, postmortem json+txt vs tarball
#   profile   pvm-matrix --profile over pvm/kvm-spt/ept x pagefault/boot/
#             migration, vs profile_matrix.json (pins the critical-path fold)
#   digest    -DNAME=<name>: run one binary from a controlled cwd and compare
#             the SHA-256 of each output file against the `<name>/<file>`
#             lines of bench_digests.sha256 (outputs too large to check in:
#             0.03-52 MB each). NAME is a figure/table binary (stdout +
#             --json at PVM_BENCH_SCALE=0.01; table0 and fig10 are checked
#             by their own cases above), fig10_observers (fig10 with every
#             observer flag) or matrix_timeseries (pvm-matrix --timeseries
#             at --jobs ${JOBS}).
#
# Regenerating goldens (after an intentional output change):
#   build/bench/table0_switch_cost --json tests/golden/table0_switch_cost.json
#   cd <scratch> && PVM_BENCH_SCALE=0.01 build/bench/fig10_pagefault_scaling \
#       --json fig10_pagefault_scaling_scale001.json
#   cd <scratch> && build/src/check/simcheck --modes pvm --policies fifo \
#       --seeds 3 --debug-corrupt-from-seed 3 \
#       --postmortem-dir golden-postmortems > simcheck_sweep.txt
#   then re-pack fig10 + postmortems: cmake -E tar czf \
#       tests/golden/golden_byte_identity.tar.gz <artifacts>
#   digest: a mismatch prints the replacement manifest line; or run the
#   digest ctest cases and, in build/tests/golden-work/digest-<name>,
#   `sha256sum <files>` with each file prefixed by `<name>/`.

if(NOT DEFINED CASE OR NOT DEFINED BIN OR NOT DEFINED GOLDEN_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "golden_check.cmake needs -DCASE -DBIN -DGOLDEN_DIR -DWORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(compare_or_die actual expected what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${actual}" "${expected}"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "golden mismatch (${what}): ${actual} differs from ${expected}")
  endif()
  message(STATUS "byte-identical: ${what}")
endfunction()

# Runs BIN with ARGN from WORK_DIR, stdout into WORK_DIR/stdout.txt. Output
# paths stay relative: the bench binaries echo them to stdout.
function(run_in_work_dir)
  execute_process(COMMAND "${BIN}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGN}: exit ${rc}")
  endif()
endfunction()

# Checks each `<name>/<file>` line of bench_digests.sha256 against the
# SHA-256 of WORK_DIR/<file>.
function(check_digests name)
  file(STRINGS "${GOLDEN_DIR}/bench_digests.sha256" entries REGEX "^[0-9a-f]+  ${name}/")
  if(NOT entries)
    message(FATAL_ERROR "bench_digests.sha256 has no ${name}/ entries")
  endif()
  foreach(entry IN LISTS entries)
    string(REGEX REPLACE "^([0-9a-f]+)  ${name}/(.*)$" "\\1;\\2" parts "${entry}")
    list(GET parts 0 expected)
    list(GET parts 1 output)
    file(SHA256 "${WORK_DIR}/${output}" actual)
    if(NOT actual STREQUAL expected)
      message(FATAL_ERROR "digest mismatch (${name}/${output}): got\n"
                          "${actual}  ${name}/${output}")
    endif()
    message(STATUS "digest matches: ${name}/${output}")
  endforeach()
endfunction()

# The tarball holds the artifacts too bulky to keep loose (fig10 export,
# postmortem json+txt); extract next to the scratch outputs.
function(extract_tarball)
  file(MAKE_DIRECTORY "${WORK_DIR}/expected")
  execute_process(COMMAND ${CMAKE_COMMAND} -E tar xzf
                          "${GOLDEN_DIR}/golden_byte_identity.tar.gz"
                  WORKING_DIRECTORY "${WORK_DIR}/expected"
                  RESULT_VARIABLE tar_rc)
  if(NOT tar_rc EQUAL 0)
    message(FATAL_ERROR "cannot extract golden_byte_identity.tar.gz")
  endif()
endfunction()

if(CASE STREQUAL "pvmtop")
  # Regenerate both files after an intentional rendering change:
  #   build/src/tools/pvm-matrix --modes pvm,kvm-spt --workloads \
  #       syscall,pagefault --timeseries \
  #       tests/golden/pvm_top_fixture.timeseries.json --out /tmp/m.json
  #   build/src/tools/pvm-top tests/golden/pvm_top_fixture.timeseries.json \
  #       > tests/golden/pvm_top_fixture.txt
  execute_process(COMMAND "${BIN}" "${GOLDEN_DIR}/pvm_top_fixture.timeseries.json"
                  OUTPUT_FILE "${WORK_DIR}/pvm_top.txt"
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pvm-top failed (exit ${rc})")
  endif()
  compare_or_die("${WORK_DIR}/pvm_top.txt" "${GOLDEN_DIR}/pvm_top_fixture.txt"
                 "pvm-top dashboard rendering")

elseif(CASE STREQUAL "table0")
  run_in_work_dir(--json out.json)
  compare_or_die("${WORK_DIR}/out.json" "${GOLDEN_DIR}/table0_switch_cost.json"
                 "table0 pvm.bench.v1 export")
  check_digests(table0_switch_cost)

elseif(CASE STREQUAL "fig10")
  extract_tarball()
  set(ENV{PVM_BENCH_SCALE} "0.01")
  run_in_work_dir(--json out.json)
  compare_or_die("${WORK_DIR}/out.json"
                 "${WORK_DIR}/expected/fig10_pagefault_scaling_scale001.json"
                 "fig10 scale=0.01 pvm.bench.v1 export")
  check_digests(fig10_pagefault_scaling)

elseif(CASE STREQUAL "simcheck")
  if(NOT DEFINED JOBS)
    set(JOBS 1)
  endif()
  extract_tarball()
  # Controlled cwd + relative postmortem dir: the postmortem path is echoed
  # into stdout, so an absolute path would make the report machine-specific.
  # --debug-corrupt-from-seed plants a coherence violation at seed 3, so the
  # sweep deliberately fails (exit 1) and emits postmortems — the point is
  # that the failure report itself is byte-stable across jobs counts.
  execute_process(COMMAND "${BIN}" --modes pvm --policies fifo --seeds 3
                          --debug-corrupt-from-seed 3
                          --postmortem-dir golden-postmortems --jobs ${JOBS}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_FILE "${WORK_DIR}/simcheck_sweep.txt"
                  ERROR_QUIET
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "simcheck: expected exit 1 (planted failure), got ${rc}")
  endif()
  compare_or_die("${WORK_DIR}/simcheck_sweep.txt" "${GOLDEN_DIR}/simcheck_sweep.txt"
                 "simcheck sweep report, jobs=${JOBS}")
  compare_or_die("${WORK_DIR}/golden-postmortems/postmortem-pvm-fifo-3.json"
                 "${WORK_DIR}/expected/postmortem-pvm-fifo-3.json"
                 "postmortem JSON, jobs=${JOBS}")
  compare_or_die("${WORK_DIR}/golden-postmortems/postmortem-pvm-fifo-3.txt"
                 "${WORK_DIR}/expected/postmortem-pvm-fifo-3.txt"
                 "postmortem timeline, jobs=${JOBS}")

elseif(CASE STREQUAL "fleet")
  # pvm.fleet.v1 byte identity: a 1.2k-launch flashcrowd (ept vs pvm, the
  # Fig. 12 contrast) at --jobs ${JOBS} must match the checked-in fixture
  # exactly — this pins the arrival samplers, the det_* math kernels, the
  # node simulations, and the shard-merge all at once. Regenerate after an
  # intentional output change:
  #   build/src/tools/pvm-fleet --scenario flashcrowd --launches 1200 \
  #       --nodes 4 --out tests/golden/fleet_fixture.json
  if(NOT DEFINED JOBS)
    set(JOBS 1)
  endif()
  execute_process(COMMAND "${BIN}" --scenario flashcrowd --launches 1200
                          --nodes 4 --jobs ${JOBS}
                          --out "${WORK_DIR}/fleet.json"
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pvm-fleet failed (exit ${rc})")
  endif()
  compare_or_die("${WORK_DIR}/fleet.json" "${GOLDEN_DIR}/fleet_fixture.json"
                 "pvm.fleet.v1 export, jobs=${JOBS}")

elseif(CASE STREQUAL "profile")
  # pvm.profile.v1 byte identity: the critical-path fold over a 9-cell
  # matrix that exercises lock-wait naming (seven lock_wait:<resource>
  # paths), nested ops and the migration dirty-track redirect. Regenerate
  # after an intentional output change:
  #   build/src/tools/pvm-matrix --modes pvm,kvm-spt,ept \
  #       --workloads pagefault,boot,migration --seeds 1 --jobs 1 \
  #       --out /dev/null --profile tests/golden/profile_matrix.json
  execute_process(COMMAND "${BIN}" --modes pvm,kvm-spt,ept
                          --workloads pagefault,boot,migration --seeds 1 --jobs 1
                          --out "${WORK_DIR}/matrix.json"
                          --profile "${WORK_DIR}/profile.json"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pvm-matrix failed (exit ${rc})")
  endif()
  compare_or_die("${WORK_DIR}/profile.json" "${GOLDEN_DIR}/profile_matrix.json"
                 "pvm.profile.v1 matrix profile")

elseif(CASE STREQUAL "digest")
  if(NOT DEFINED NAME)
    message(FATAL_ERROR "digest case needs -DNAME")
  endif()
  if(NAME STREQUAL "fig10_observers")
    set(ENV{PVM_BENCH_SCALE} "0.01")
    set(args --json out.json --trace trace.json --timeseries ts.json --ts-window 500000
             --profile profile.json --report --alloc-stats --flight-capacity 64
             --slo "boot:boot_latency_ns:p99<=15ms" --slo "lock:lock_wait_ns:p99<=1ms:window")
  elseif(NAME STREQUAL "matrix_timeseries")
    if(NOT DEFINED JOBS)
      set(JOBS 1)
    endif()
    set(args --modes all --workloads all --policies fifo,random
             --faults none,bootstorm,latency,migration-stall --seeds 1 --jobs ${JOBS}
             --out matrix.json --timeseries ts.json)
  else()
    set(ENV{PVM_BENCH_SCALE} "0.01")
    set(args --json out.json)
  endif()
  run_in_work_dir(${args})
  check_digests(${NAME})

else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
