#!/bin/sh
# Non-test Go lines per internal/* package (sub-packages included) and the
# total: the figure the "collapse the execution paths" roadmap item is
# judged by. Informational — it never fails.
set -eu
cd "$(dirname "$0")/.."

total=0
for dir in internal/*/; do
    pkg=${dir%/}
    n=$(find "$pkg" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    printf '%-24s %6d\n' "$pkg" "$n"
    total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
