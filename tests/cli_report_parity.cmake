# Replay one trace through the CLI twice — as emmctrace text and as
# emmctrace-bin — with the same flags, and require byte-identical run
# reports apart from the trace_file meta naming the input. REQUIRE is
# a regex the report must match, so the comparison cannot pass on a
# run where the flags under test did nothing.
#
#   cmake -DCLI=<emmcsim_cli> -DTEXT=<trace> -DBIN=<trace.bin>
#         "-DARGS=<scheme> <flags...>" [-DREQUIRE=<regex>]
#         -P cli_report_parity.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(kind text bin)
    if(kind STREQUAL "text")
        set(input "${TEXT}")
    else()
        set(input "${BIN}")
    endif()
    set(out "parity_${kind}.json")
    execute_process(
        COMMAND "${CLI}" replay "${input}" ${args} "--metrics-json=${out}"
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "replay of ${input} exited ${rc}")
    endif()
    file(READ "${out}" report)
    string(REGEX REPLACE "\"trace_file\":\"[^\"]*\"" "\"trace_file\":\"X\""
           report "${report}")
    set(report_${kind} "${report}")
endforeach()
if(DEFINED REQUIRE AND NOT report_bin MATCHES "${REQUIRE}")
    message(FATAL_ERROR "report lacks ${REQUIRE}")
endif()
if(NOT report_text STREQUAL report_bin)
    message(FATAL_ERROR "text and emmctrace-bin replays produced "
                        "different run reports")
endif()
message(STATUS "text and emmctrace-bin run reports are identical")
