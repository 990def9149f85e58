# Runs one balign command and compares what it printed with a golden.
#
#   cmake -DBALIGN=<balign> -DDIR=<work dir> -DGOLDEN=<file>
#         -DARGS="<args>" [-DFILE=<file the command writes>] -P cli_golden.cmake
#
# The command runs in DIR, so relative -o paths and input names keep build
# paths out of the golden. The compared text is the command's stdout, then
# (with FILE) the file it wrote under a "--- FILE" header, then
# "exit <status>". On a mismatch the actual text is written next to the
# work dir as <golden name>.actual; copy it over the golden to re-pin.

separate_arguments(argv UNIX_COMMAND "${ARGS}")
if(DEFINED FILE)
    file(REMOVE "${DIR}/${FILE}")
endif()
execute_process(COMMAND "${BALIGN}" ${argv}
                WORKING_DIRECTORY "${DIR}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(DEFINED FILE)
    file(READ "${DIR}/${FILE}" written)
    string(APPEND actual "--- ${FILE}\n${written}")
endif()
string(APPEND actual "exit ${status}\n")

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name "${GOLDEN}" NAME)
    file(WRITE "${DIR}/${name}.actual" "${actual}")
    message(FATAL_ERROR "balign ${ARGS}: output differs from ${GOLDEN}\n"
                        "actual output: ${DIR}/${name}.actual\n${actual}")
endif()
