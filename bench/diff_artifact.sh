#!/bin/sh
# Diffs one artifact of `reproduce` against its block in the committed
# `reproduce all` output:
#
#   diff_artifact.sh <reproduce binary> <artifact> <REPRODUCED.txt>
#
# Exits 0 when the bytes match, 1 with a unified diff when they do not
# (or when the file has no block for the artifact), and with reproduce's
# own code when it fails.
set -u
Got=$(mktemp) && Want=$(mktemp) || exit 1
trap 'rm -f "$Got" "$Want"' EXIT
"$1" "$2" > "$Got" || exit $?
# A block runs from its "=== reproduce <name> ===" header to the next:
# drop the blank line after the header and the one before the next.
awk -v A="$2" '/^=== reproduce /{on = ($3 == A); next} on' "$3" |
  sed '1d' | sed '${/^$/d;}' > "$Want"
if [ ! -s "$Want" ]; then
  echo "diff_artifact: no '$2' block in $3" >&2
  exit 1
fi
diff -u "$Want" "$Got"
