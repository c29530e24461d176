# Replay one trace through the CLI and require the run report to equal
# a checked-in golden byte for byte, apart from the trace_file meta
# naming the input (the golden stores "X" there). With --attribution
# this pins every field of the attribution section, so a change to
# how the summary is computed cannot drift the report unnoticed; a
# change that means to alter the report regenerates the golden (see
# DESIGN.md §14.3).
#
#   cmake -DCLI=<emmcsim_cli> -DTRACE=<trace> -DGOLDEN=<report.json>
#         "-DARGS=<scheme> <flags...>" -P cli_report_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(out "${GOLDEN}" NAME)
set(out "golden_run_${out}")
execute_process(
    COMMAND "${CLI}" replay "${TRACE}" ${args} "--metrics-json=${out}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay of ${TRACE} exited ${rc}")
endif()
file(READ "${out}" report)
string(REGEX REPLACE "\"trace_file\":\"[^\"]*\"" "\"trace_file\":\"X\""
       report "${report}")
file(READ "${GOLDEN}" golden)
if(NOT report STREQUAL golden)
    file(WRITE "${out}.blanked" "${report}")
    message(FATAL_ERROR "run report ${out}.blanked differs from ${GOLDEN}")
endif()
message(STATUS "run report matches ${GOLDEN}")
