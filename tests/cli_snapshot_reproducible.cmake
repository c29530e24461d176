# Snapshot one trace through the CLI twice, each time with the heap
# pre-filled by a different MALLOC_PERTURB_ byte, and require the two
# images to be identical byte for byte. An image that serializes
# uninitialized memory (struct padding, say) picks up the fill byte
# and differs between the runs.
#
#   cmake -DCLI=<emmcsim_cli> -DTRACE=<trace> "-DARGS=<scheme> <flags...>"
#         -P cli_snapshot_reproducible.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(fill 90 165)
    set(image "reproducible_${fill}.img")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env "MALLOC_PERTURB_=${fill}"
                "${CLI}" snapshot "${TRACE}" "${image}" ${args}
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "snapshot of ${TRACE} exited ${rc}")
    endif()
endforeach()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            reproducible_90.img reproducible_165.img
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "snapshot images differ between heap fills: "
                        "the image carries uninitialized bytes")
endif()
message(STATUS "snapshot images are identical across heap fills")
