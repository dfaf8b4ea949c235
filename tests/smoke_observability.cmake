# Smoke test for the observability layer: run the quickstart example
# with StreamFloat tracing and JSON stat export enabled, then assert
# that every advertised artifact actually appeared; check that stream
# tracing works on four workers and that a serial fallback warns once.
#
# Invoked by ctest as:
#   cmake -DQUICKSTART=<exe> -DOUT_DIR=<dir> -P smoke_observability.cmake

if(NOT QUICKSTART OR NOT OUT_DIR)
    message(FATAL_ERROR "QUICKSTART and OUT_DIR must be set")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SF_DEBUG_FLAGS=StreamFloat
            "${QUICKSTART}" pathfinder 0.02
            "--stats-json=${OUT_DIR}"
            "--trace=${OUT_DIR}/streams.trace.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(NOT rc EQUAL 0)
    message(FATAL_ERROR "quickstart failed (rc=${rc}): ${err}")
endif()

# Debug tracing: tick-stamped, flag-tagged float/sink lines on stderr.
if(NOT err MATCHES "\\[StreamFloat\\]")
    message(FATAL_ERROR "no [StreamFloat] trace lines on stderr")
endif()
if(NOT err MATCHES "floated sid=")
    message(FATAL_ERROR "no float decision lines in the trace output")
endif()

# JSON artifacts: one stats.json per machine plus the Chrome trace.
foreach(f
        "${OUT_DIR}/OOO8_L1Bingo_L2Stride_pathfinder.stats.json"
        "${OUT_DIR}/OOO8_SF_pathfinder.stats.json"
        "${OUT_DIR}/streams.trace.json")
    if(NOT EXISTS "${f}")
        message(FATAL_ERROR "missing artifact: ${f}")
    endif()
    file(SIZE "${f}" sz)
    if(sz EQUAL 0)
        message(FATAL_ERROR "empty artifact: ${f}")
    endif()
endforeach()

file(READ "${OUT_DIR}/OOO8_SF_pathfinder.stats.json" stats)
if(NOT stats MATCHES "\"schema\": \"sf-stats\"")
    message(FATAL_ERROR "stats.json missing schema stamp")
endif()
if(NOT stats MATCHES "\"series\"")
    message(FATAL_ERROR "stats.json missing interval series section")
endif()

file(READ "${OUT_DIR}/streams.trace.json" trace)
if(NOT trace MATCHES "traceEvents")
    message(FATAL_ERROR "trace.json is not a Chrome trace-event file")
endif()

# Stream tracing runs on the tile-parallel engine: at --threads=4 no
# serial-fallback warning appears and the trace is byte-identical to
# the --threads=1 one.
foreach(t 1 4)
    execute_process(
        COMMAND "${QUICKSTART}" pathfinder 0.02 --threads=${t}
                "--trace=${OUT_DIR}/t${t}.trace.json"
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "traced quickstart --threads=${t} failed "
                            "(rc=${rc}): ${err}")
    endif()
    if(err MATCHES "ignored")
        message(FATAL_ERROR "tracing at --threads=${t} fell back to one "
                            "worker: ${err}")
    endif()
endforeach()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/t1.trace.json" "${OUT_DIR}/t4.trace.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace differs between --threads=1 and --threads=4")
endif()

# A real serial fallback (--verify) warns once per process, not once
# per simulation: quickstart runs two.
execute_process(
    COMMAND "${QUICKSTART}" pathfinder 0.02 --threads=4 --verify
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "quickstart --threads=4 --verify failed "
                        "(rc=${rc}): ${err}")
endif()
string(REGEX MATCHALL "--threads=4 ignored" hits "${err}")
list(LENGTH hits n)
if(NOT n EQUAL 1)
    message(FATAL_ERROR "expected one 'ignored' warning, got ${n}: ${err}")
endif()

message(STATUS "observability smoke test passed")
