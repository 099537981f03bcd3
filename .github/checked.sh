# Sourced by tier1.yml's analyze steps once they have set $d to their scratch
# directory.  Each row of a fresh store names its N, so analyze must not warn
# that a multi-N store repeats an embedding id: `checked CMD...` runs CMD,
# shows its stderr, and fails on an error or that warning.
checked() {
  local rc=0
  "$@" 2> "$d/stderr" || rc=$?
  cat "$d/stderr" >&2
  test $rc -eq 0 && ! grep -q "repeats embedding id" "$d/stderr"
}
