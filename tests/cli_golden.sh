#!/bin/sh
# CLI golden check: runs one dmc command and compares its exit code and its
# complete stdout against a recorded golden file.
#
#   cli_golden.sh EXPECTED_EXIT GOLDEN_FILE [--stderr TEXT] DMC [ARGS...]
#
# stderr (diagnostics, degraded notes) is not compared; with --stderr it
# must contain TEXT. The golden files under tests/cli_golden/ pin the
# verdict lines, the per-phase round / message / bit tables and the
# exit-code contract of docs/ROBUSTNESS.md.
want_rc=$1
golden=$2
shift 2
want_err=
if [ "$1" = "--stderr" ]; then
  want_err=$2
  shift 2
fi
out=$(mktemp) || exit 1
err=$(mktemp) || exit 1
trap 'rm -f "$out" "$err"' EXIT
"$@" >"$out" 2>"$err"
rc=$?
status=0
if [ "$rc" -ne "$want_rc" ]; then
  echo "exit code: got $rc, want $want_rc"
  status=1
fi
if ! diff -u "$golden" "$out"; then
  echo "stdout differs from $golden"
  status=1
fi
if [ -n "$want_err" ] && ! grep -qF -- "$want_err" "$err"; then
  echo "stderr lacks '$want_err':"
  cat "$err"
  status=1
fi
exit $status
