# Runs `tpcp serve` with eviction churn in an empty working directory
# and fails unless the run evicted tenants and left nothing behind:
# evicted tenants park in memory, and only --migrate-out, --phase-out
# and --json write to disk.
#
#   cmake -DTPCP=<tpcp binary> -DWORK_DIR=<empty dir> -P <this file>
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
    COMMAND "${TPCP}" serve --tenants 8 --packets 300 --producers 2
            --jobs 1 --resident 2 --evict-after 64
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tpcp serve failed (${rc}):\n${out}${err}")
endif()
if(NOT out MATCHES "evictions +[1-9]")
    message(FATAL_ERROR "the run evicted no tenant:\n${out}")
endif()
file(GLOB left LIST_DIRECTORIES true "${WORK_DIR}/*")
if(left)
    message(FATAL_ERROR "tpcp serve left behind: ${left}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
