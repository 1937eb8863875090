#!/usr/bin/env bash
# bench-artifacts-tracked: fail when a root BENCH_*.json that a
# bench_compare_*_smoke test reads is untracked or matched by a
# .gitignore rule — a working tree would still pass the compare tests,
# but a fresh clone of the commit would not.  Exits 77 (the test's
# SKIP_RETURN_CODE) when git is missing or the source tree is not the
# top of a git work tree (e.g. an unpacked release tarball).
#
# Usage: check_artifacts_tracked.sh <repo-root> <artifact>...
set -u

ROOT="$1"
shift

if ! command -v git >/dev/null 2>&1; then
  echo "skip: git not found"
  exit 77
fi
top=$(git -C "$ROOT" rev-parse --show-toplevel 2>/dev/null) || {
  echo "skip: $ROOT is not in a git work tree"
  exit 77
}
if [ "$(cd "$top" && pwd -P)" != "$(cd "$ROOT" && pwd -P)" ]; then
  echo "skip: $ROOT is not the top of its git work tree ($top)"
  exit 77
fi

status=0
for f in "$@"; do
  if ! git -C "$ROOT" ls-files --error-unmatch -- "$f" >/dev/null 2>&1; then
    echo "$f: not tracked by git"
    status=1
  fi
  # --no-index: a tracked file matched by an ignore rule is still a trap
  # (regenerating it after a `git rm --cached` silently drops it).
  # (Without -v: with it, a matching `!` exception also exits 0.)
  git -C "$ROOT" check-ignore --no-index -q -- "$f"
  case $? in
    0) echo "$f: ignored by" \
            "$(git -C "$ROOT" check-ignore --no-index -v -- "$f")"
       status=1 ;;
    1) ;;
    *) echo "$f: git check-ignore failed"; status=1 ;;
  esac
done
[ "$status" -eq 0 ] && echo "ok: $# checked-in bench artifacts tracked and not ignored"
exit "$status"
