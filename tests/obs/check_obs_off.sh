#!/usr/bin/env bash
# Guard for the LWM_OBS=OFF contract: with LWM_OBS_ENABLED=0 the macros
# must compile to nothing — no symbol from namespace lwm::obs may appear
# in the object code, even at -O0 (so it is the preprocessor doing the
# erasing, not the optimizer).  Compiles a probe translation unit that
# uses every macro and greps the mangled namespace prefix out of `nm`.
#
# Usage: check_obs_off.sh <c++-compiler> <repo-root> <scratch-dir>
set -eu

CXX="$1"
SRC_DIR="$2"
OUT_DIR="$3"

probe="$OUT_DIR/obs_off_probe.cpp"
obj="$OUT_DIR/obs_off_probe.o"

cat > "$probe" <<'EOF'
#define LWM_OBS_ENABLED 0
#include "obs/obs.h"

int probe_work(int n) {
  LWM_SPAN("probe/span");
  long long total = 0;
  for (int i = 0; i < n; ++i) {
    LWM_COUNT("probe/count", 1);
    LWM_HIST("probe/hist", i);
    LWM_HIST_MERGE("probe/hist_merged", 1, i, i, nullptr);
    total += i;
  }
  return static_cast<int>(total & 0x7fffffff);
}
EOF

"$CXX" -std=c++20 -O0 -c "$probe" -I "$SRC_DIR/src" -o "$obj"

# Itanium mangling: every lwm::obs symbol contains the nested-name
# fragment "3lwm3obs".
if nm "$obj" | grep "3lwm3obs"; then
  echo "FAIL: lwm::obs symbols survive an LWM_OBS_ENABLED=0 compile" >&2
  exit 1
fi

echo "PASS: LWM_OBS=OFF compiles the obs macros to nothing"
