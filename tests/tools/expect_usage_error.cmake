# Runs a command and fails unless it exits 2 (a usage error) with
# stderr matching EXPECT.
#
#   cmake -DEXPECT=<regex> -P <this file> -- <command> [<arg>...]
set(command "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(after_dashes TRUE)
    endif()
endforeach()
execute_process(COMMAND ${command}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}:\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
