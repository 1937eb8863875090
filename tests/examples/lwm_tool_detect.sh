#!/usr/bin/env bash
# Pins `lwm_tool detect` on a 3-record archive: the printed lines and the
# exit code, with the author's key (every record detected, exit 0) and
# with a stranger's key (nothing detected, exit 1).  The expected text is
# what the tool printed when it still scanned the design once per record,
# so the single batched scan must reproduce it byte for byte.
#
# Usage: lwm_tool_detect.sh <lwm_tool> <scratch-dir>
set -u

TOOL="$1"
DIR="$2/lwm_tool_detect"
rm -rf "$DIR"
mkdir -p "$DIR"

"$TOOL" gen "$DIR/design.cdfg" --seed 3 > /dev/null || exit 1
"$TOOL" embed "$DIR/design.cdfg" k3y "$DIR/ship" --marks 3 > /dev/null || exit 1
[ "$(grep -c '^sched ' "$DIR/ship.lwm")" = 3 ] || {
  echo "FAIL: expected a 3-record archive" >&2
  exit 1
}

status=0

# check <label> <key> <want-exit> <want-stdout, less its final newline>
check() {
  local got code
  # The trailing "x" keeps command substitution from eating newlines.
  got=$("$TOOL" detect "$DIR/ship.cdfg" "$DIR/ship.sched" "$2" "$DIR/ship.lwm"
        code=$?; echo x; exit $code)
  code=$?
  got=${got%x}
  set -- "$1" "$2" "$3" "$4
"
  if [ "$got" != "$4" ] || [ "$code" != "$3" ]; then
    echo "FAIL ($1): exit $code, want $3; stdout:" >&2
    echo "$got" >&2
    echo "want:" >&2
    echo "$4" >&2
    status=1
  fi
}

check author k3y 0 "record 0: DETECTED (1 hit(s) / 160 roots)
record 1: DETECTED (1 hit(s) / 160 roots)
record 2: DETECTED (3 hit(s) / 160 roots)
3/3 watermarks detected -> authorship established"

check stranger wrong 1 "record 0: not found (0 hit(s) / 160 roots)
record 1: not found (0 hit(s) / 160 roots)
record 2: not found (0 hit(s) / 160 roots)
0/3 watermarks detected -> no evidence"

exit $status
