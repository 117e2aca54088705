# Runs commands and compares what they print or write with checked-in
# goldens or with each other.
#
#   cmake -DWORK_DIR=<dir> [-DPROFILE_DIR=<dir>] -P <this file> --
#         RUN <command> [<arg>...] [RUN ...]... [SAME <actual> <expected>]...
#
# WORK_DIR is emptied first and kept afterwards, so the actual outputs
# stay in the build tree, pass or fail. Command <i> (from 1) runs in
# its own directory WORK_DIR/<i>, with stdout in WORK_DIR/<i>.stdout
# and stderr in WORK_DIR/<i>.stderr; any exit status but 0 fails.
# Unless the environment sets TPCP_PROFILE_DIR to a non-empty value
# (empty means unset, as it does to tpcp), it is set to PROFILE_DIR.
# In a command argument, <profiles> stands for that directory.
#
# Each SAME compares <actual> with <expected> byte for byte, relative
# paths resolving in WORK_DIR: two files, or two directories with the
# same file names, file by file. An <actual> of the form a+b stands
# for the text of a followed by that of b (file by file, for
# directories), written to WORK_DIR/a+b with '/' read as '_'.
if(PROFILE_DIR AND "$ENV{TPCP_PROFILE_DIR}" STREQUAL "")
    set(ENV{TPCP_PROFILE_DIR} "${PROFILE_DIR}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")

set(runs 0)
set(into "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    set(arg "${CMAKE_ARGV${i}}")
    if(arg STREQUAL "RUN")
        math(EXPR runs "${runs} + 1")
        set(into run_${runs})
    elseif(arg STREQUAL "SAME")
        set(into pairs)
    elseif(into)
        string(REPLACE "<profiles>" "$ENV{TPCP_PROFILE_DIR}" arg "${arg}")
        list(APPEND ${into} "${arg}")
    endif()
endforeach()

foreach(i RANGE 1 ${runs})
    file(MAKE_DIRECTORY "${WORK_DIR}/${i}")
    execute_process(COMMAND ${run_${i}}
        WORKING_DIRECTORY "${WORK_DIR}/${i}"
        OUTPUT_FILE "${WORK_DIR}/${i}.stdout"
        ERROR_FILE "${WORK_DIR}/${i}.stderr"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        file(READ "${WORK_DIR}/${i}.stderr" err)
        message(FATAL_ERROR "command ${i} exited ${rc}: ${run_${i}}\n${err}")
    endif()
endforeach()

# Compares file @p actual@p suffix, joined first from @p parts when
# there are several, with @p expected@p suffix; a difference is
# printed as a diff and its file names appended to `mismatches`.
function(compare actual parts expected suffix)
    list(LENGTH parts nparts)
    if(nparts GREATER 1)
        file(WRITE "${actual}${suffix}" "")
        foreach(part ${parts})
            file(READ "${WORK_DIR}/${part}${suffix}" text)
            file(APPEND "${actual}${suffix}" "${text}")
        endforeach()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
            "${actual}${suffix}" "${expected}${suffix}"
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        execute_process(COMMAND diff -u
            "${expected}${suffix}" "${actual}${suffix}")
        set(mismatches "${mismatches}${actual}${suffix} differs from \
${expected}${suffix}\n" PARENT_SCOPE)
    endif()
endfunction()

set(mismatches "")
while(pairs)
    list(POP_FRONT pairs actual expected)
    get_filename_component(expected "${expected}" ABSOLUTE
        BASE_DIR "${WORK_DIR}")
    string(REPLACE "+" ";" parts "${actual}")
    if(actual MATCHES "[+]")
        string(REPLACE "/" "_" actual "${actual}")
    endif()
    set(actual "${WORK_DIR}/${actual}")
    # GLOB_RECURSE sorts, and finds nothing under a plain file.
    file(GLOB_RECURSE names RELATIVE "${expected}" "${expected}/*")
    foreach(part ${parts})
        file(GLOB_RECURSE got RELATIVE "${WORK_DIR}/${part}"
            "${WORK_DIR}/${part}/*")
        if(NOT got STREQUAL names)
            string(APPEND mismatches
                "${part} holds [${got}], ${expected} holds [${names}]\n")
            set(names "")
        endif()
    endforeach()
    if(NOT IS_DIRECTORY "${expected}")
        compare("${actual}" "${parts}" "${expected}" "")
    endif()
    foreach(name ${names})
        compare("${actual}" "${parts}" "${expected}" "/${name}")
    endforeach()
endwhile()
if(mismatches)
    message(FATAL_ERROR "outputs in ${WORK_DIR} differ:\n${mismatches}")
endif()
