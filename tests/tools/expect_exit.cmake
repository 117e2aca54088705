# Runs a command and fails unless it exits with status EXIT, with
# stderr matching EXPECT (when given) and free of sanitizer reports.
#
#   cmake -DEXIT=<status> [-DEXPECT=<regex>] -P <this file> --
#         <command> [<arg>...]
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
if(NOT rc EQUAL "${EXIT}")
    message(FATAL_ERROR "expected exit ${EXIT}, got ${rc}:\n${out}${err}")
endif()
if(EXPECT AND NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
if(err MATCHES "Sanitizer|runtime error:")
    message(FATAL_ERROR "sanitizer report:\n${err}")
endif()
