# Smoke test for the parallel sweep runner: the merged deterministic
# report must be byte-identical between a serial (-j 1) and a parallel
# (-j 4) run of the same grid, proving the merge is independent of job
# count and completion order. Removed options must exit 2, and a point
# that fails must be recorded once and fail the sweep.
#
# Invoked by ctest as:
#   cmake -DSWEEP=<exe> -DOUT_DIR=<dir> -P smoke_sweep.cmake

if(NOT SWEEP OR NOT OUT_DIR)
    message(FATAL_ERROR "SWEEP and OUT_DIR must be set")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

set(grid
    --cores=2x2 --scale=0.01 --workloads=mv,pathfinder
    --cpus=io4 --machines=Base,SF)

foreach(jobs 1 4)
    execute_process(
        COMMAND "${SWEEP}" ${grid} -j ${jobs}
                "--out=${OUT_DIR}/j${jobs}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "sweep -j ${jobs} failed (rc=${rc}): "
                            "${out}\n${err}")
    endif()
endforeach()

foreach(f "BENCH_sweep.det.json" "BENCH_sweep.json")
    foreach(jobs 1 4)
        if(NOT EXISTS "${OUT_DIR}/j${jobs}/${f}")
            message(FATAL_ERROR "missing artifact: ${OUT_DIR}/j${jobs}/${f}")
        endif()
    endforeach()
endforeach()

# The determinism contract: byte identity, not structural similarity.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/j1/BENCH_sweep.det.json"
            "${OUT_DIR}/j4/BENCH_sweep.det.json"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "BENCH_sweep.det.json differs between -j 1 and "
                        "-j 4: the merge is order-dependent")
endif()

# Sanity on the companion file: host section present and well formed.
file(READ "${OUT_DIR}/j4/BENCH_sweep.json" full)
string(JSON jobs GET "${full}" host jobs)
if(NOT jobs EQUAL 4)
    message(FATAL_ERROR "host.jobs is ${jobs}, expected 4")
endif()
string(JSON wall GET "${full}" host wallSeconds)
if(wall LESS_EQUAL 0)
    message(FATAL_ERROR "host.wallSeconds not positive: ${wall}")
endif()
# ...and absent from the deterministic file.
file(READ "${OUT_DIR}/j1/BENCH_sweep.det.json" det)
if(det MATCHES "wallSeconds")
    message(FATAL_ERROR "deterministic report leaked host timing")
endif()

message(STATUS "sweep smoke test passed: -j 1 and -j 4 byte-identical")

# ---------------------------------------------------------------------
# Removed options fail loudly: a stale script passing --resume or
# --point-timeout gets usage and exit 2 before any point is forked, so
# it cannot silently re-run a whole grid.

foreach(flag "--resume" "--point-timeout=5")
    execute_process(
        COMMAND "${SWEEP}" ${grid} ${flag} "--out=${OUT_DIR}/removed"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT "${out}${err}" MATCHES "usage:")
        message(FATAL_ERROR "sweep ${flag} must exit 2 with usage "
                            "(rc=${rc}): ${out}\n${err}")
    endif()
    if(EXISTS "${OUT_DIR}/removed" OR out MATCHES "sweep: ")
        message(FATAL_ERROR "sweep ${flag} ran points before rejecting "
                            "the option: ${out}")
    endif()
endforeach()

# ---------------------------------------------------------------------
# A failed point fails the sweep: a 100-cycle watchdog fires in
# IO4_Base_mv before any progress, so its child exits 64 through the
# shared driver exit path. Children are deterministic, so the point
# runs once (one "fatal[64]" line), is recorded as a
# "status": "failed" entry with "exitCode": 64 in both reports, and
# the sweep exits 1 after writing them.

execute_process(
    COMMAND "${SWEEP}" ${grid} -j 4 --watchdog-cycles=100
            "--out=${OUT_DIR}/failed"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "sweep with a failed point must exit 1 "
                        "(rc=${rc}): ${out}\n${err}")
endif()
string(REGEX MATCHALL "fatal\\[64\\]" attempts "${err}")
list(LENGTH attempts n_attempts)
if(NOT n_attempts EQUAL 1 OR out MATCHES "retry")
    message(FATAL_ERROR "IO4_Base_mv ran ${n_attempts} times, expected "
                        "once:\n${out}\n${err}")
endif()
if(NOT out MATCHES "FAILED IO4_Base_mv \\(exit 64\\)")
    message(FATAL_ERROR "sweep log does not name the failed point:\n"
                        "${out}")
endif()
file(READ "${OUT_DIR}/failed/BENCH_sweep.det.json" det)
string(REGEX MATCHALL "\"status\": \"failed\"" marks "${det}")
list(LENGTH marks n_failed)
if(NOT n_failed EQUAL 1)
    message(FATAL_ERROR "expected 1 failed entry in the report, got "
                        "${n_failed}")
endif()
foreach(f "BENCH_sweep.det.json" "BENCH_sweep.json")
    file(READ "${OUT_DIR}/failed/${f}" report)
    string(JSON id GET "${report}" points 0 id)
    string(JSON status GET "${report}" points 0 status)
    string(JSON code GET "${report}" points 0 exitCode)
    if(NOT id STREQUAL "IO4_Base_mv" OR NOT status STREQUAL "failed"
       OR NOT code EQUAL 64)
        message(FATAL_ERROR "${f}: first point is ${id} (${status}, "
                            "exitCode ${code}), expected IO4_Base_mv "
                            "failed with 64")
    endif()
endforeach()
string(JSON code GET "${report}" host points 0 exitCode)
if(NOT code EQUAL 64)
    message(FATAL_ERROR "host entry of IO4_Base_mv has exitCode ${code}")
endif()

message(STATUS "sweep failure handling passed: removed flags exit 2, "
               "a failed point is recorded once and fails the sweep")
