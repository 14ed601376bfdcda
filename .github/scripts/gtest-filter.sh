#!/bin/sh
# Runs a gtest binary under --gtest_filter=PATTERNS after checking that
# every colon-separated pattern matches at least one of its tests. A
# filter that matches nothing makes gtest exit 0 having run nothing, so a
# renamed or deleted test would otherwise empty a CI step silently.
#
#   usage: gtest-filter.sh BINARY PATTERNS [GTEST ARGS...]
#
# Positive patterns only: a '-' exclusion list is not split out.
set -eu
bin=$1
filter=$2
shift 2
missing=0
old_ifs=$IFS
IFS=:
for pattern in $filter; do
  # Test lines of --gtest_list_tests are indented; suite lines are not.
  if ! "$bin" --gtest_list_tests --gtest_filter="$pattern" | grep -q '^  '; then
    echo "gtest-filter.sh: '$pattern' matches no test in $bin" >&2
    missing=1
  fi
done
IFS=$old_ifs
[ "$missing" -eq 0 ] || exit 1
exec "$bin" --gtest_filter="$filter" "$@"
