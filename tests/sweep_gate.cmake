# Perf + determinism regression gate on the parallel sweep runner
# (the nightly / `perf`-label CI job; tier-1 runs it as the
# `sweep_det_gate` ctest with -DSTRICT_WALL=OFF).
#
# Runs the canonical gate grid serially and with -j 4, then asserts:
#   1. the -j 1 and -j 4 deterministic reports are byte-identical
#      (order-independent merge);
#   2. the deterministic report is byte-identical to the checked-in
#      baseline (simulated behavior did not silently change — a
#      behavioral change must refresh bench/baselines/ in the same
#      commit, which makes it reviewable);
#   3. sweep wall-clock did not regress more than TOLERANCE_PCT
#      against the baseline's recorded wall-clock (skippable via
#      -DSTRICT_WALL=OFF when baseline and runner hardware differ);
#   4. optionally, -j 4 achieves MIN_SPEEDUP_X100/100x over serial.
#
# Invoked as:
#   cmake -DSWEEP=<exe> -DBASELINE_DIR=<dir> -DOUT_DIR=<dir>
#         [-DTOLERANCE_PCT=15] [-DSTRICT_WALL=ON]
#         [-DMIN_SPEEDUP_X100=0] -P sweep_gate.cmake
#
# Refreshing the baseline after an intentional behavior change:
#   sweep <canonical grid below> -j 4 --out=<tmp>
#   cp <tmp>/BENCH_sweep.det.json <tmp>/BENCH_sweep.json bench/baselines/

if(NOT SWEEP OR NOT BASELINE_DIR OR NOT OUT_DIR)
    message(FATAL_ERROR "SWEEP, BASELINE_DIR and OUT_DIR must be set")
endif()
if(NOT DEFINED TOLERANCE_PCT)
    set(TOLERANCE_PCT 15)
endif()
if(NOT DEFINED STRICT_WALL)
    set(STRICT_WALL ON)
endif()
if(NOT DEFINED MIN_SPEEDUP_X100)
    set(MIN_SPEEDUP_X100 0)
endif()

# The canonical gate grid. Must match the grid the checked-in baseline
# was produced with: 2x2 mesh, smoke scale, 32 points.
set(grid
    --cores=2x2 --scale=0.02 --workloads=mv,bfs,pathfinder,hotspot
    --cpus=io4,ooo4 --machines=Base,Stride,SS,SF)

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

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

# 1. Order independence.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/j1/BENCH_sweep.det.json"
            "${OUT_DIR}/j4/BENCH_sweep.det.json"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "determinism gate: -j 1 and -j 4 reports "
                        "differ — the merge is order-dependent")
endif()

# 2. Stability against the checked-in baseline.
set(baseline_det "${BASELINE_DIR}/BENCH_sweep.det.json")
if(NOT EXISTS "${baseline_det}")
    message(FATAL_ERROR "no checked-in baseline at ${baseline_det}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/j4/BENCH_sweep.det.json" "${baseline_det}"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "determinism gate: sweep stats diverge from "
        "${baseline_det}. If the behavior change is intentional, "
        "refresh bench/baselines/ in the same commit (see header).")
endif()
message(STATUS "determinism gate passed: byte-identical to baseline")

# Fixed-point milliseconds from a decimal-seconds string (CMake's
# math() is integer-only; the 1###-1000 trick survives leading zeros).
function(seconds_to_millis val out)
    string(REGEX MATCH "^([0-9]+)(\\.([0-9]*))?$" m "${val}")
    if(NOT m)
        message(FATAL_ERROR "not a duration: '${val}'")
    endif()
    set(frac "${CMAKE_MATCH_3}000")
    string(SUBSTRING "${frac}" 0 3 frac)
    math(EXPR ms "${CMAKE_MATCH_1} * 1000 + (1${frac} - 1000)")
    set(${out} ${ms} PARENT_SCOPE)
endfunction()

file(READ "${OUT_DIR}/j1/BENCH_sweep.json" serial_json)
file(READ "${OUT_DIR}/j4/BENCH_sweep.json" par_json)
string(JSON serial_wall GET "${serial_json}" host wallSeconds)
string(JSON par_wall GET "${par_json}" host wallSeconds)
seconds_to_millis("${serial_wall}" serial_ms)
seconds_to_millis("${par_wall}" par_ms)
if(par_ms GREATER 0)
    math(EXPR speedup_x100 "${serial_ms} * 100 / ${par_ms}")
else()
    set(speedup_x100 0)
endif()
message(STATUS "wall-clock: serial ${serial_wall}s, -j4 ${par_wall}s "
               "(speedup x100 = ${speedup_x100})")

# 3. Wall-clock regression against the baseline.
set(baseline_full "${BASELINE_DIR}/BENCH_sweep.json")
if(EXISTS "${baseline_full}")
    file(READ "${baseline_full}" base_json)
    string(JSON base_wall GET "${base_json}" host wallSeconds)
    seconds_to_millis("${base_wall}" base_ms)
    math(EXPR limit_ms "${base_ms} + ${base_ms} * ${TOLERANCE_PCT} / 100")
    if(par_ms GREATER limit_ms)
        if(STRICT_WALL)
            message(FATAL_ERROR "perf gate: -j4 wall ${par_wall}s "
                "exceeds baseline ${base_wall}s by more than "
                "${TOLERANCE_PCT}% (limit ${limit_ms}ms)")
        else()
            message(WARNING "perf advisory: -j4 wall ${par_wall}s vs "
                "baseline ${base_wall}s (> ${TOLERANCE_PCT}%)")
        endif()
    else()
        message(STATUS "perf gate passed: ${par_ms}ms <= "
                       "limit ${limit_ms}ms")
    endif()
else()
    message(WARNING "no wall-clock baseline at ${baseline_full}; "
                    "perf check skipped")
endif()

# 4. Parallel speedup floor (opt-in).
if(MIN_SPEEDUP_X100 GREATER 0 AND speedup_x100 LESS MIN_SPEEDUP_X100)
    message(FATAL_ERROR "perf gate: -j4 speedup x100 = ${speedup_x100} "
                        "below required ${MIN_SPEEDUP_X100}")
endif()

message(STATUS "sweep gate passed")
