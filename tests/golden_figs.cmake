# Byte-identity guard for the figure and table drivers: the stdout of
# one fig*/abl*/tab driver must equal its checked-in golden in
# tests/golden/. Any change to simulated behaviour moves at least one
# printed cell, so a change that alters results fails here unless the
# same commit regenerates the goldens (REGEN=ON, or the regen-goldens
# build target, which runs this script for every driver).
#
# Invoked by ctest as:
#   cmake -DDRIVER=<exe> -DGOLDEN=<file> -DOUT_DIR=<dir>
#         [-DARGS=<comma-separated driver options>] [-DREGEN=ON]
#         -P golden_figs.cmake

if(NOT DRIVER OR NOT GOLDEN OR NOT OUT_DIR)
    message(FATAL_ERROR "DRIVER, GOLDEN and OUT_DIR must be set")
endif()
get_filename_component(name "${DRIVER}" NAME)
string(REPLACE "," ";" args "${ARGS}")

execute_process(
    COMMAND "${DRIVER}" ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} ${args} failed (rc=${rc}):\n${err}")
endif()

if(REGEN)
    file(WRITE "${GOLDEN}" "${out}")
    message(STATUS "${name}: wrote ${GOLDEN}")
    return()
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(actual "${OUT_DIR}/${name}.txt")
file(WRITE "${actual}" "${out}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${actual}"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
        "${name} output differs from its golden ${GOLDEN} (actual run "
        "saved as ${actual}). Simulated results changed: fix the "
        "change, or regenerate the goldens in the same commit if the "
        "new behaviour is intended.\n--- actual ---\n${out}")
endif()
message(STATUS "${name} matches ${GOLDEN}")
