# Command-line strictness of one bench/example driver, the same bar
# quickstart_usage sets for the quickstart: --help prints the option
# list and exits 0; an unknown option (--threads included), a stray
# positional argument or a malformed --cores/--scale/--workloads value
# prints the usage to stderr and exits 2 before any machine is built. Which of those three
# options the driver has is read from its own --help list; one it
# lacks must be reported as unknown. A driver with positional sizes
# gets valid ones in POSITIONALS (comma-separated): the stray argument
# then follows them, and a malformed or zero first size must exit 2.
# A malformed --check or --faults, where --help lists it, must exit 2
# and name its reason once, with no fatal() line before it.
# A driver whose --help lists --watchdog-cycles must leave a 1-cycle
# watchdog through the shared main with exit 64 and a "fatal[64]" line
# (the sweep, which writes into --out, is covered by smoke_sweep).
#
# Invoked by ctest as:
#   cmake -DDRIVER=<exe> [-DPOSITIONALS=<v1,v2,...>] -P driver_usage.cmake

if(NOT DRIVER)
    message(FATAL_ERROR "DRIVER must be set")
endif()
get_filename_component(DRIVER_NAME "${DRIVER}" NAME)
include("${CMAKE_CURRENT_LIST_DIR}/quickstart_usage.cmake")

expect_usage(0 "-h, --help" --help)
execute_process(COMMAND "${DRIVER}" --help OUTPUT_VARIABLE help)

expect_usage(2 "unknown option '--scael=0.5'" --scael=0.5)
expect_usage(2 "unknown option '--bogus'" --bogus)
# The tile-parallel engine and its worker count are gone.
expect_usage(2 "unknown option '--threads=4'" --threads=4)
string(REPLACE "," ";" positionals "${POSITIONALS}")
expect_usage(2 "unexpected argument 'extra'" ${positionals} extra)
if(positionals)
    expect_usage(2 "must be a positive integer.*, got 'abc'" abc)
    expect_usage(2 "must be a positive integer.*, got '0'" 0)
endif()

foreach(check
        "cores|abc|--cores must be NxM"
        "scale|x|--scale must be a positive number, got 'x'"
        "workloads|nope|--workloads must be one of .*, got 'nope'")
    string(REPLACE "|" ";" check "${check}")
    list(GET check 0 opt)
    list(GET check 1 bad)
    list(GET check 2 reason)
    if(NOT help MATCHES "--${opt}=")
        set(reason "unknown option '--${opt}=${bad}'")
    endif()
    expect_usage(2 "${reason}" --${opt}=${bad})
endforeach()

expect_run_option_errors("${help}")

if(help MATCHES "--watchdog-cycles=" AND NOT DRIVER_NAME STREQUAL "sweep")
    set(args --watchdog-cycles=1)
    foreach(opt cores=2x2 scale=0.01 workloads=mv)
        string(REGEX MATCH "^[a-z]+=" name "${opt}")
        if(help MATCHES "--${name}")
            list(APPEND args "--${opt}")
        endif()
    endforeach()
    execute_process(
        COMMAND "${DRIVER}" ${args}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
        TIMEOUT 20)
    if(NOT rc EQUAL 64 OR NOT err MATCHES "fatal\\[64\\]")
        message(FATAL_ERROR "${DRIVER_NAME} ${args}: exit ${rc}, expected "
                            "64 with fatal[64]\nstderr: ${err}")
    endif()
endif()

message(STATUS "${DRIVER_NAME} usage checks passed")
