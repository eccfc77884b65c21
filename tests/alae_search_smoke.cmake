# The alae_search CLI's exit-code contract, end to end on its --demo
# workload: a search succeeds (0, TSV header on stdout), an unknown engine
# is a usage error (2, before any search runs), and a request the API
# rejects (bad threshold, BASIC's text cap) fails the run (nonzero).
#
#   cmake -DALAE_SEARCH=... -P alae_search_smoke.cmake

function(run_demo expect)
  execute_process(
    COMMAND "${ALAE_SEARCH}" --demo ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(expect STREQUAL "nonzero")
    if(rc EQUAL 0)
      message(FATAL_ERROR "alae_search --demo ${ARGN} exited 0, expected "
                          "nonzero\n${err}")
    endif()
  elseif(NOT rc EQUAL expect)
    message(FATAL_ERROR "alae_search --demo ${ARGN} exited ${rc}, expected "
                        "${expect}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

run_demo(0 --engine=alae --threads=0)
if(NOT out MATCHES "^#query\ttext_end\tquery_end\tscore\te_value\n")
  message(FATAL_ERROR "alae_search --demo printed no #query header:\n${out}")
endif()
run_demo(2 --engine=nope)
run_demo(nonzero --threshold=-3)
run_demo(nonzero --engine=basic)
