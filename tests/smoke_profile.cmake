# Smoke test for the --profile latency-attribution profiler: run the
# quickstart twice with identical arguments, assert the profile.json
# schema and content, and require the two runs to be byte-identical
# (the determinism contract of DESIGN.md §4h). Also exercises the
# fail-fast output-path validation from the command line.
#
# Invoked by ctest as:
#   cmake -DQUICKSTART=<exe> -DOUT_DIR=<dir> -P smoke_profile.cmake

if(NOT QUICKSTART OR NOT OUT_DIR)
    message(FATAL_ERROR "QUICKSTART and OUT_DIR must be set")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(run a b)
    execute_process(
        COMMAND "${QUICKSTART}" pathfinder 0.02
                "--stats-json=${OUT_DIR}/${run}" --profile
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "quickstart --profile failed (rc=${rc}): ${err}")
    endif()
endforeach()

# Every machine writes a profile.json next to its stats.json.
foreach(m "OOO8_L1Bingo_L2Stride" "OOO8_SF")
    set(f "${OUT_DIR}/a/${m}_pathfinder.profile.json")
    if(NOT EXISTS "${f}")
        message(FATAL_ERROR "missing artifact: ${f}")
    endif()
    file(SIZE "${f}" sz)
    if(sz EQUAL 0)
        message(FATAL_ERROR "empty artifact: ${f}")
    endif()
endforeach()

# Schema validation on the SF report: schema stamp, phase taxonomy,
# per-tile latency groups, exact top-down split, NoC heatmaps.
file(READ "${OUT_DIR}/a/OOO8_SF_pathfinder.profile.json" prof)
foreach(want
        "\"schema\": \"sf-profile\""
        "\"schemaVersion\": 1"
        "\"phases\""
        "\"latency\""
        "\"demand\""
        "\"topdown\""
        "\"retired\""
        "\"stalledSebuf\""
        "\"openRecords\": 0"
        "\"staleMarks\": 0"
        "\"heatmaps\""
        "\"nocLinkBusy\""
        "\"nocRouterFlits\"")
    if(NOT prof MATCHES "${want}")
        message(FATAL_ERROR "profile.json missing ${want}")
    endif()
endforeach()

# Determinism contract: rerunning the same configuration must render
# byte-identical reports.
foreach(m "OOO8_L1Bingo_L2Stride" "OOO8_SF")
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${OUT_DIR}/a/${m}_pathfinder.profile.json"
                "${OUT_DIR}/b/${m}_pathfinder.profile.json"
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
            "profile.json for ${m} differs between identical runs")
    endif()
endforeach()

# stats.json gains the profile.* stat groups when profiling.
file(READ "${OUT_DIR}/a/OOO8_SF_pathfinder.stats.json" stats)
if(NOT stats MATCHES "profile\\.topdown")
    message(FATAL_ERROR "stats.json missing profile.topdown group")
endif()
if(NOT stats MATCHES "profile\\.tile0")
    message(FATAL_ERROR "stats.json missing profile.tile0 group")
endif()

# Fail-fast path validation: --stats-json pointing at an existing FILE
# must exit nonzero immediately with a message naming the flag.
file(WRITE "${OUT_DIR}/blocker" "not a directory\n")
execute_process(
    COMMAND "${QUICKSTART}" pathfinder 0.02
            "--stats-json=${OUT_DIR}/blocker" --profile
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "--stats-json at a file should have failed")
endif()
if(NOT err MATCHES "--stats-json")
    message(FATAL_ERROR "error message does not name --stats-json: ${err}")
endif()

# Same for --trace with a missing parent directory.
execute_process(
    COMMAND "${QUICKSTART}" pathfinder 0.02
            "--trace=${OUT_DIR}/no/such/dir/t.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "--trace into a missing dir should have failed")
endif()
if(NOT err MATCHES "--trace")
    message(FATAL_ERROR "error message does not name --trace: ${err}")
endif()

message(STATUS "profile smoke test passed")
