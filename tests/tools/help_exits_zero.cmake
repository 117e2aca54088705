# Runs `--help` on every binary in BINARIES (comma-separated) and on
# every command the first one (tpcp) lists in its --help; fails unless
# each exits 0.
#
#   cmake -DBINARIES=<bin>[,<bin>...] -P <this file>
string(REPLACE "," ";" binaries "${BINARIES}")
set(runs 0)
foreach(bin ${binaries})
    execute_process(COMMAND "${bin}" --help
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bin} --help exited ${rc}:\n${err}")
    endif()
    math(EXPR runs "${runs} + 1")
    # Command lines look like "  <word> [<word>] <operands>  summary".
    string(REGEX MATCHALL "\n  [a-z]+( [a-z]+)?" commands "${out}")
    if(runs EQUAL 1 AND NOT commands)
        message(FATAL_ERROR "${bin} --help lists no command:\n${out}")
    endif()
    foreach(command ${commands})
        string(STRIP "${command}" command)
        separate_arguments(words UNIX_COMMAND "${command}")
        execute_process(COMMAND "${bin}" ${words} --help
            RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "${bin} ${command} --help exited ${rc}:\n${err}")
        endif()
        math(EXPR runs "${runs} + 1")
    endforeach()
endforeach()
message(STATUS "${runs} --help runs exited 0")
