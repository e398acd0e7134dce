#!/usr/bin/env bash
# Counts the simulator's code lines, per crate and in total: the lines of
# every crates/*/src/**/*.rs file that are not blank and do not start
# (after indentation) with `//`, up to the file's first `#[cfg(test)]`,
# so unit tests, comments and docs do not count. Run it on rustfmt-clean
# sources (`cargo fmt --all`), where the count is stable.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    crate="${crate%/}"
    [ -d "$crate/src" ] || continue
    count="$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting && !/^[ \t]*$/ && !/^[ \t]*\/\// { lines++ }
        END { print lines + 0 }')"
    printf '%-18s %6d\n' "${crate#crates/}" "$count"
    total=$((total + count))
done
printf '%-18s %6d\n' total "$total"
