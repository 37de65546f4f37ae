#!/bin/sh
# Non-test source lines per internal/* package (sub-packages included):
# Go, assembly (*.s) and their sum, then the totals. This is the figure the
# "collapse the execution paths" roadmap item is judged by. Test fixtures
# under testdata/ are not package source: they are left out of the package
# rows and the totals and counted on their own row. Informational — it
# never fails.
set -eu
cd "$(dirname "$0")/.."

lines() { # lines DIR FIND-ARGS...: lines in the matching files under DIR, testdata skipped
    dir=$1
    shift
    find "$dir" -name testdata -prune -o "$@" -exec cat {} + | wc -l
}

printf '%-24s %6s %6s %6s\n' package go asm total
gototal=0
asmtotal=0
for dir in internal/*/; do
    pkg=${dir%/}
    g=$(lines "$pkg" -name '*.go' ! -name '*_test.go')
    a=$(lines "$pkg" -name '*.s')
    printf '%-24s %6d %6d %6d\n' "$pkg" "$g" "$a" $((g + a))
    gototal=$((gototal + g))
    asmtotal=$((asmtotal + a))
done
printf '%-24s %6d %6d %6d\n' total "$gototal" "$asmtotal" $((gototal + asmtotal))
fixtures=$(find internal -path '*/testdata/*' -name '*.go' -exec cat {} + | wc -l)
printf '%-24s %6d %6d %6d\n' 'testdata (fixtures)' "$fixtures" 0 "$fixtures"
