# Smoke test for the parallel sweep runner: the merged deterministic
# report must be byte-identical between a serial (-j 1) and a parallel
# (-j 4) run of the same grid, proving the merge is independent of job
# count and completion order. Forced child crashes and hangs must be
# retried and recorded, and a sweep SIGKILLed mid-run must converge
# under --resume to the report of an uninterrupted run.
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
# Crash resilience: force one child to crash and one to hang. Both must
# be retried once, recorded as "status": "failed" in the merged report,
# and the sweep must still complete with exit 0. A later --resume run
# must skip the completed points, redo only the failed ones, and
# converge to the same bytes as a clean run.

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            SF_SWEEP_TEST_CRASH=IO4_Base_pathfinder
            SF_SWEEP_TEST_HANG=IO4_SF_mv
            "${SWEEP}" ${grid} -j 4 --point-timeout=5
            "--out=${OUT_DIR}/faulty"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep with forced failures aborted (rc=${rc}): "
                        "${out}\n${err}")
endif()
foreach(pat "crashed IO4_Base_pathfinder.*retrying"
        "timed out IO4_SF_mv.*retrying"
        "FAILED IO4_Base_pathfinder"
        "FAILED IO4_SF_mv")
    if(NOT out MATCHES "${pat}")
        message(FATAL_ERROR "sweep log missing '${pat}':\n${out}")
    endif()
endforeach()
file(READ "${OUT_DIR}/faulty/BENCH_sweep.det.json" faulty)
string(REGEX MATCHALL "\"status\": \"failed\"" marks "${faulty}")
list(LENGTH marks n_failed)
if(NOT n_failed EQUAL 2)
    message(FATAL_ERROR "expected 2 failed entries in the report, "
                        "got ${n_failed}")
endif()

# One flaky point (crashes only on its first attempt) must recover via
# the retry and leave a clean report.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SF_SWEEP_TEST_FLAKY=IO4_Base_mv
            "${SWEEP}" ${grid} -j 4 "--out=${OUT_DIR}/flaky"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "crashed IO4_Base_mv.*retrying")
    message(FATAL_ERROR "flaky point did not retry (rc=${rc}): ${out}")
endif()
file(READ "${OUT_DIR}/flaky/BENCH_sweep.det.json" flaky)
if(flaky MATCHES "\"status\": \"failed\"")
    message(FATAL_ERROR "flaky point failed despite the retry")
endif()

# Resume over the faulty output: completed points are skipped, only the
# two failed ones rerun, and the report matches a clean run exactly.
execute_process(
    COMMAND "${SWEEP}" ${grid} -j 4 --resume "--out=${OUT_DIR}/faulty"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resume sweep failed (rc=${rc}): ${out}\n${err}")
endif()
string(REGEX MATCHALL "resume skip" skips "${out}")
list(LENGTH skips n_skips)
if(NOT n_skips EQUAL 2)
    message(FATAL_ERROR "resume skipped ${n_skips} points, expected 2: "
                        "${out}")
endif()
if(NOT out MATCHES "done IO4_Base_pathfinder" OR
   NOT out MATCHES "done IO4_SF_mv")
    message(FATAL_ERROR "resume did not rerun the failed points: ${out}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/faulty/BENCH_sweep.det.json"
            "${OUT_DIR}/j1/BENCH_sweep.det.json"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "resumed report differs from a clean run")
endif()

message(STATUS "sweep resilience passed: crash+hang recorded, flaky "
               "retried, resume converged")

# ---------------------------------------------------------------------
# Crash recovery: SIGKILL the whole sweep after 5 completed points, as
# an OOM-killed or rebooted host would. The killed run must not leave a
# merged report. --resume must CRC-validate the survivors (re-running
# one whose stats.json was damaged), re-run the rest from tick 0, and
# emit a report byte-identical to an uninterrupted sweep.

set(crash_grid
    --cores=2x2 --scale=0.01 --workloads=mv,pathfinder,nn,hotspot
    --cpus=io4 --machines=Base,SF)

execute_process(
    COMMAND "${SWEEP}" ${crash_grid} -j 2 "--out=${OUT_DIR}/crash_ref"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "crash reference sweep failed (rc=${rc}): "
                        "${out}\n${err}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SF_SWEEP_TEST_PARENT_KILL_AFTER=5
            "${SWEEP}" ${crash_grid} -j 2 "--out=${OUT_DIR}/crash"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "sweep survived SF_SWEEP_TEST_PARENT_KILL_AFTER;"
                        " the crash hook never engaged")
endif()
if(EXISTS "${OUT_DIR}/crash/BENCH_sweep.det.json")
    message(FATAL_ERROR "killed sweep still wrote a merged report")
endif()

# Damage one surviving result: --resume must detect the CRC mismatch
# and re-run that point instead of trusting it.
file(GLOB oks "${OUT_DIR}/crash/points/*.ok")
list(LENGTH oks n_oks)
if(n_oks LESS 5)
    message(FATAL_ERROR "expected >=5 completed points before the "
                        "parent kill, found ${n_oks}")
endif()
list(GET oks 0 first_ok)
string(REPLACE ".ok" ".stats.json" first_stats "${first_ok}")
file(APPEND "${first_stats}" "x")

execute_process(
    COMMAND "${SWEEP}" ${crash_grid} -j 2 --resume
            "--out=${OUT_DIR}/crash"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed sweep failed (rc=${rc}): ${out}\n${err}")
endif()
if(NOT out MATCHES "resume skip")
    message(FATAL_ERROR "resume revalidated nothing; expected surviving "
                        "points to be skipped:\n${out}")
endif()
get_filename_component(damaged "${first_ok}" NAME_WE)
if(out MATCHES "resume skip ${damaged}\n")
    message(FATAL_ERROR "resume trusted ${damaged} despite its damaged "
                        "stats.json:\n${out}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/crash_ref/BENCH_sweep.det.json"
            "${OUT_DIR}/crash/BENCH_sweep.det.json"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "resumed sweep report differs from the "
                        "uninterrupted reference")
endif()

message(STATUS "sweep crash recovery passed: kill -9 + --resume "
               "byte-identical (damaged survivor re-ran)")
