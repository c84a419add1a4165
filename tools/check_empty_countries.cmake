# ctest dohperf_cli_rejects_empty_countries: `dohperf_cli campaign
# --countries ""` must exit 2 with one diagnostic naming the flag. Run as
#   cmake -DCLI=<dohperf_cli> -DOUT=<dir> -P check_empty_countries.cmake
execute_process(
  COMMAND ${CLI} campaign --countries "" --scale 0.005 --out ${OUT}
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
set(want "^dohperf_cli: --countries: key \"world\\.only_countries\": expected at least one item, got an empty value\n$")
if(NOT code EQUAL 2 OR NOT err MATCHES "${want}")
  message(FATAL_ERROR "exit ${code}, stderr: ${err}")
endif()
