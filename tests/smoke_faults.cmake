# Fault-injection smoke suite: run the quickstart under each fault
# class (dropped float requests, dropped credit grants, duplicated
# end/ack messages, forced SE_L3 overflow) and assert that every run
# completes with committed work identical to the fault-free baseline —
# the graceful-degradation machinery must fully absorb the faults.
# Then disable the retry machinery with every float request dropped
# and assert the forward-progress watchdog turns the hang into a
# distinct nonzero exit (64) with a diagnostic snapshot, not a wedge;
# the snapshot shows each core's state.
#
# Invoked by ctest as:
#   cmake -DQUICKSTART=<exe> -DOUT_DIR=<dir> -P smoke_faults.cmake

if(NOT QUICKSTART OR NOT OUT_DIR)
    message(FATAL_ERROR "QUICKSTART and OUT_DIR must be set")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Extract "committedOps": N from a stats.json file.
function(committed_ops json_file out_var)
    file(READ "${json_file}" stats)
    if(NOT stats MATCHES "\"committedOps\": ([0-9]+)")
        message(FATAL_ERROR "no committedOps in ${json_file}")
    endif()
    set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# Run quickstart with a fault spec; assert clean exit; return the SF
# machine's committedOps.
function(run_faulted tag spec out_var)
    set(dir "${OUT_DIR}/${tag}")
    file(MAKE_DIRECTORY "${dir}")
    if(spec STREQUAL "none")
        set(fault_args "")
    else()
        set(fault_args "--faults=${spec}")
    endif()
    execute_process(
        COMMAND "${QUICKSTART}" pathfinder 0.02
                "--stats-json=${dir}" ${fault_args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "faulted run '${tag}' (${spec}) failed rc=${rc}: ${err}")
    endif()
    committed_ops("${dir}/OOO8_SF_pathfinder.stats.json" ops)
    set(${out_var} "${ops}" PARENT_SCOPE)
endfunction()

run_faulted(baseline none BASE_OPS)
if(BASE_OPS EQUAL 0)
    message(FATAL_ERROR "baseline run committed no work")
endif()

# Each fault class in turn; results must match the fault-free run.
run_faulted(dropfloat "seed:3,dropfloat:0.5" OPS_DROPFLOAT)
run_faulted(dropcredit "seed:5,dropcredit:0.3" OPS_DROPCREDIT)
run_faulted(dup "seed:7,dupend:0.5,dupack:0.5" OPS_DUP)
run_faulted(overflow "overflow:1" OPS_OVERFLOW)
run_faulted(delay "seed:11,delay:0.2,delaycycles:400" OPS_DELAY)

foreach(pair
        "dropfloat:${OPS_DROPFLOAT}"
        "dropcredit:${OPS_DROPCREDIT}"
        "dup:${OPS_DUP}"
        "overflow:${OPS_OVERFLOW}"
        "delay:${OPS_DELAY}")
    string(REPLACE ":" ";" parts "${pair}")
    list(GET parts 0 tag)
    list(GET parts 1 ops)
    if(NOT ops EQUAL BASE_OPS)
        message(FATAL_ERROR
                "fault class '${tag}' changed committed work: "
                "${ops} vs baseline ${BASE_OPS}")
    endif()
endforeach()

# With retries disabled and every float request dropped, the run must
# NOT hang and must NOT succeed: the watchdog converts the wedge into
# exit code 64 with a diagnostic dump on stderr.
execute_process(
    COMMAND "${QUICKSTART}" pathfinder 0.02
            "--faults=dropfloat:1,noretry" "--watchdog-cycles=100000"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 240)
if(rc EQUAL 0)
    message(FATAL_ERROR "noretry wedge run unexpectedly succeeded")
endif()
if(NOT rc EQUAL 64)
    message(FATAL_ERROR "expected watchdog exit 64, got rc=${rc}: ${err}")
endif()
if(NOT err MATCHES "no forward progress")
    message(FATAL_ERROR "watchdog trip without its message: ${err}")
endif()
if(NOT err MATCHES "watchdog: interval=")
    message(FATAL_ERROR "watchdog trip without a diagnostic dump")
endif()
if(NOT err MATCHES "fault-injector|dropped")
    message(FATAL_ERROR "diagnostic dump missing fault injector state")
endif()
# Each tile's block starts with its core: what the wedged cores wait on.
if(NOT err MATCHES "tile0\\.core rob=")
    message(FATAL_ERROR "diagnostic dump missing the cores' state")
endif()

message(STATUS "fault-injection smoke suite passed "
               "(baseline committedOps=${BASE_OPS})")
