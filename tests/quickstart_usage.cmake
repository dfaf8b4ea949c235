# Command-line strictness of the quickstart: --help/-h print the option
# list and exit 0; an unknown option or workload, a third positional
# argument or a scale that is not a fully parsed positive number
# prints the usage to stderr and exits 2 before any machine is built.
# None of these may reach the simulator, so the run banner and the
# fatal()-path "diagnostic snapshot" must never appear.
#
# Invoked by ctest as:
#   cmake -DQUICKSTART=<exe> -P quickstart_usage.cmake
#
# tests/driver_usage.cmake includes this file for expect_usage() alone
# (with DRIVER and DRIVER_NAME set); the quickstart checks below run
# only when QUICKSTART is set.

# Run ${DRIVER} with ARGN; assert exit status EXPECT_RC, that
# MUST_MATCH appears on the stream the status implies (stdout for 0,
# stderr otherwise) next to "usage: ${DRIVER_NAME}", and that nothing
# was simulated: no diagnostic snapshot, nothing on stdout after a
# usage error, and no ${DRIVER_BANNER} (a regex) when it is set.
function(expect_usage expect_rc must_match)
    execute_process(
        COMMAND "${DRIVER}" ${ARGN}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
        TIMEOUT 20)
    if(NOT rc EQUAL expect_rc)
        message(FATAL_ERROR "${DRIVER_NAME} ${ARGN}: exit ${rc}, expected "
                            "${expect_rc}\nstdout: ${out}\nstderr: ${err}")
    endif()
    if(expect_rc EQUAL 0)
        set(stream "${out}")
    else()
        set(stream "${err}")
    endif()
    if(NOT stream MATCHES "${must_match}")
        message(FATAL_ERROR "${DRIVER_NAME} ${ARGN}: expected "
                            "'${must_match}'\nstdout: ${out}\nstderr: ${err}")
    endif()
    if(NOT stream MATCHES "usage: ${DRIVER_NAME}")
        message(FATAL_ERROR "${DRIVER_NAME} ${ARGN}: no usage text\n"
                            "stdout: ${out}\nstderr: ${err}")
    endif()
    if("${out}${err}" MATCHES "diagnostic snapshot")
        message(FATAL_ERROR "${DRIVER_NAME} ${ARGN}: dumped a diagnostic "
                            "snapshot for a machine that never ran:\n"
                            "${err}")
    endif()
    if(NOT expect_rc EQUAL 0 AND NOT out STREQUAL "")
        message(FATAL_ERROR "${DRIVER_NAME} ${ARGN}: printed to stdout "
                            "after a usage error:\n${out}")
    endif()
    if(DRIVER_BANNER AND out MATCHES "${DRIVER_BANNER}")
        message(FATAL_ERROR "${DRIVER_NAME} ${ARGN}: started a "
                            "simulation:\n${out}")
    endif()
endfunction()

if(NOT QUICKSTART)
    if(DRIVER)
        return()
    endif()
    message(FATAL_ERROR "QUICKSTART must be set")
endif()
set(DRIVER "${QUICKSTART}")
set(DRIVER_NAME quickstart)
set(DRIVER_BANNER "stream-floating quickstart: workload=")

expect_usage(0 "--stats-json=DIR" --help)
expect_usage(0 "--profile" -h)
# --help wins even after otherwise valid arguments.
expect_usage(0 "--verify" pathfinder 0.02 --help)

expect_usage(2 "unknown option '--bogus'" --bogus)
expect_usage(2 "unknown option '-x'" pathfinder -x)
expect_usage(2 "unknown option '--checkpoint=x'" pathfinder 0.02
             --checkpoint=x)
# The tile-parallel engine and its worker count (--threads, -j) are
# gone.
expect_usage(2 "unknown option '--threads=4'" pathfinder 0.02 --threads=4)
expect_usage(2 "unknown option '-j4'" pathfinder 0.02 -j4)
expect_usage(2 "unknown option '-j'" pathfinder 0.02 -j)
expect_usage(2 "unexpected argument 'extra'" pathfinder 0.02 extra)

foreach(bad abc 0.02x 0 nan inf 1e999)
    expect_usage(2 "scale must be a positive number, got '${bad}'"
                 pathfinder ${bad})
endforeach()
# A negative scale reads as an option.
expect_usage(2 "unknown option '-0.5'" pathfinder -0.5)
# An unknown workload fails before anything is built.
expect_usage(2 "workload must be one of .*, got 'nope'" nope)

message(STATUS "quickstart usage checks passed")
