#!/usr/bin/env bash
# usage: query_ladder.sh <trace_tool> <trace.pvt>
#
# One query session walks the outlier threshold up a ladder and back to
# its first rung, so every rung after the first re-classifies the cached
# SOS stage, and switches the candidate on one rung and back. Repeated
# answers (the SOS matrix CSV, the dependency reports) are served from the
# renders the engine keeps with its cache entries. Its answers must equal
# a separate single-rung session per threshold, eager and --lazy
# --threads 4. Writes ladder_*.txt into the working directory.
set -euo pipefail
tool=$1
trace=$2
for mode in "" "--lazy --threads 4"; do
  : > ladder_queries.txt
  : > ladder_cold.txt
  for z in 2.0 2.5 3.0 3.5 4.0 4.5 2.0; do
    printf 'analyze threshold %s\nexport json threshold %s\nexport csv-hotspots threshold %s\nexport csv threshold %s\ncritpath\ncritpath json\ncritpath csv\n' \
      "$z" "$z" "$z" "$z" > ladder_rung.txt
    if [ "$z" = 3.5 ]; then
      printf 'analyze candidate 1 threshold %s\nexport csv candidate 1 threshold %s\nexport json candidate 1 threshold %s\nexport csv threshold %s\n' \
        "$z" "$z" "$z" "$z" >> ladder_rung.txt
    fi
    cat ladder_rung.txt >> ladder_queries.txt
    # shellcheck disable=SC2086  # $mode is a list of flags
    "$tool" $mode query "$trace" < ladder_rung.txt >> ladder_cold.txt
  done
  # shellcheck disable=SC2086
  "$tool" $mode query "$trace" < ladder_queries.txt > ladder_warm.txt
  test -s ladder_warm.txt
  diff ladder_warm.txt ladder_cold.txt
done
