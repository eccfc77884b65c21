# The corpus lifecycle of docs/OPERATIONS.md, end to end: serve_main builds
# and saves a corpus, then serve_net_main loads that directory and serves it
# until stdin closes. Fails on any nonzero exit, so the two drivers cannot
# drift apart on the corpus format unnoticed.
#
#   cmake -DSERVE_MAIN=... -DSERVE_NET_MAIN=... -DCORPUS_DIR=... \
#         -P corpus_lifecycle_smoke.cmake

file(REMOVE_RECURSE "${CORPUS_DIR}")

execute_process(
  COMMAND "${SERVE_MAIN}" --corpus=${CORPUS_DIR} --random-text=20000
          --sample-queries=2 --threads=1
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve_main (build + save) exited with ${rc}")
endif()

execute_process(
  COMMAND "${SERVE_NET_MAIN}" --corpus=${CORPUS_DIR} --port=0
  INPUT_FILE /dev/null
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve_net_main (load + serve) exited with ${rc}")
endif()

file(REMOVE_RECURSE "${CORPUS_DIR}")
