# Fuzz-regression smoke: replay the fixed seed corpus through the
# differential config matrix ({io,ooo} x {stride-prefetch, no-float,
# float, float+confluence}), asserting (a) every config agrees with
# the functional reference (exit 0), (b) the outcome log is
# byte-identical across invocations (the fuzzer is deterministic),
# (c) an injected stale-GetU protocol bug is caught with the
# distinct verify exit code 67, and (d) a seed file that lists no
# seeds, or a malformed one, is a usage error (exit 2) whose message
# starts with the program's basename.
#
# Invoked by ctest as:
#   cmake -DFUZZ=<exe> -DCORPUS=<seeds.txt> -DOUT_DIR=<dir>
#         -P smoke_fuzz.cmake

if(NOT FUZZ OR NOT CORPUS OR NOT OUT_DIR)
    message(FATAL_ERROR "FUZZ, CORPUS and OUT_DIR must be set")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(run 1 2)
    execute_process(
        COMMAND "${FUZZ}" "--seed-file=${CORPUS}"
                "--log=${OUT_DIR}/run${run}.log"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fuzz corpus replay ${run} failed rc=${rc}: "
                            "${out}\n${err}")
    endif()
endforeach()

# Determinism contract: byte identity of the outcome logs.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/run1.log" "${OUT_DIR}/run2.log"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "fuzz outcome logs differ between identical "
                        "invocations: the fuzzer is nondeterministic")
endif()

# Every corpus point must be present and agree with the reference.
file(STRINGS "${OUT_DIR}/run1.log" lines)
list(LENGTH lines n_lines)
if(n_lines LESS 20)
    message(FATAL_ERROR "fuzz log has only ${n_lines} lines")
endif()
foreach(line ${lines})
    if(NOT line MATCHES "status=ok")
        message(FATAL_ERROR "fuzz log line without status=ok: ${line}")
    endif()
endforeach()

# Negative: the stale-GetU injection must be caught with exit 67.
# Seed 6 generates a cross-tile handoff phase that exposes it.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SF_VERIFY_BUG=stale-getu
            "${FUZZ}" --seeds=6:7
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 67)
    message(FATAL_ERROR "expected verify exit 67 under stale-getu, "
                        "got rc=${rc}: ${err}")
endif()
if(NOT err MATCHES "verify divergence")
    message(FATAL_ERROR "exit 67 without a divergence diagnostic: ${err}")
endif()
if(NOT err MATCHES "golden:")
    message(FATAL_ERROR "divergence diagnostic missing the golden/"
                        "observed byte dump: ${err}")
endif()

# Negative: seed files the fuzzer must refuse before running anything.
file(WRITE "${OUT_DIR}/empty_seeds.txt" "# only a comment\n\n   \n")
file(WRITE "${OUT_DIR}/bad_seeds.txt" "# one good seed, then junk\n3\nabc\n")
foreach(case empty bad)
    execute_process(
        COMMAND "${FUZZ}" "--seed-file=${OUT_DIR}/${case}_seeds.txt"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "expected usage exit 2 for the ${case} seed "
                            "file, got rc=${rc}: ${out}\n${err}")
    endif()
    if(NOT err MATCHES "^fuzz: ")
        message(FATAL_ERROR "usage error for the ${case} seed file does "
                            "not start with 'fuzz: ': ${err}")
    endif()
    if(NOT err MATCHES "${case}_seeds.txt")
        message(FATAL_ERROR "usage error for the ${case} seed file does "
                            "not name the file: ${err}")
    endif()
endforeach()

message(STATUS "fuzz regression corpus passed (${n_lines} points, "
               "deterministic, injection caught)")
