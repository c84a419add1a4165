# Re-runs the benches behind two committed artifacts at the default scale
# and seed, in a scratch directory, and fails unless each writes its
# artifact byte for byte:
#   ext_encrypted_dns_ladder  out/ext_warm_ladder.json   BENCH_warm_ladder.json
#   ext_attribution           out/BENCH_attribution.json BENCH_attribution.json
#
#   cmake -DLADDER=<ext_encrypted_dns_ladder> -DATTRIBUTION=<ext_attribution> \
#         -DSOURCE_DIR=<checkout> -DWORK_DIR=<scratch dir> \
#         -P bench/check_committed_artifacts.cmake
unset(ENV{DOHPERF_SCALE})
unset(ENV{DOHPERF_SEED})
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(check "${LADDER};ext_warm_ladder.json;BENCH_warm_ladder.json"
              "${ATTRIBUTION};BENCH_attribution.json;BENCH_attribution.json")
  list(GET check 0 bench)
  list(GET check 1 written)
  list(GET check 2 committed)
  execute_process(COMMAND "${bench}" WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${WORK_DIR}/out/${written}"
                          "${SOURCE_DIR}/${committed}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${bench} wrote out/${written}, which differs from "
                        "the committed ${committed}; re-commit it if the "
                        "change is meant to move it")
  endif()
  message(STATUS "${committed} is what ${bench} writes")
endforeach()
