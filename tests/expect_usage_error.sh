#!/bin/sh
# Usage: expect_usage_error.sh NAME PROGRAM [ARGS...]
# Passes when PROGRAM ARGS exits with status 2, the usage-error status,
# and its stderr names NAME (the setting it rejects).
name=$1
shift
err=$("$@" 2>&1 >/dev/null)
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit status 2, got $rc: $err"
  exit 1
fi
case $err in
  *"$name"*) exit 0 ;;
esac
echo "stderr does not name $name: $err"
exit 1
