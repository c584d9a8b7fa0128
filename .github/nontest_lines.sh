#!/bin/sh
# Prints "FILE LINES CODE" for each Rust source FILE: LINES counts the
# lines before its `#[cfg(test)] mod tests`, CODE the non-blank,
# non-comment lines among them. A `#[cfg(test)]` item further up (a
# test-only field or helper) does not end the count; only the test
# module does. A file without one is counted whole.
#
#   .github/nontest_lines.sh crates/sim/src/calendar.rs crates/sim/src/engine.rs
set -eu
for f in "$@"; do
    awk -v file="$f" '
        /^mod tests/ {
            if (prev ~ /^#\[cfg\(test\)\]/) { lines--; code-- }
            exit
        }
        { lines++; if ($0 !~ /^[ \t]*($|\/\/)/) code++; prev = $0 }
        END { print file, lines, code }
    ' "$f"
done
