#!/usr/bin/env bash
# Usage: check-run-patterns.sh PACKAGE PATTERN [PACKAGE PATTERN ...]
#
# Fails when any |-separated alternative of a `go test -run` PATTERN
# matches no test, benchmark, fuzz target or example in PACKAGE. A -run
# pattern that matches nothing passes with "no tests to run", so without
# this check a renamed or deleted test drops out of a named CI gate
# silently. Alternatives are split at every |, so patterns checked here
# must not group alternatives in parentheses.
set -euo pipefail

status=0
while [ $# -gt 0 ]; do
  pkg=$1
  pattern=$2
  shift 2
  names=$(go test -list '.*' "$pkg" | grep -v '^ok ')
  IFS='|' read -ra alts <<< "$pattern"
  for alt in "${alts[@]}"; do
    if ! grep -Eq -- "$alt" <<< "$names"; then
      echo "::error::-run alternative '$alt' matches no test in $pkg"
      status=1
    fi
  done
done
exit "$status"
