#!/bin/sh
# Counts Rust lines under crates/ src/ tests/ examples/ and prints the total
# and the non-test share. Run from the repository root (or pass it as $1).
#
# Non-test excludes:
#   - every file under a `tests/` directory;
#   - a trailing `#[cfg(test)]` + `mod tests {` block (from the attribute
#     to the end of the file);
#   - test-only modules, i.e. files declared as `#[cfg(test)] mod name;`.
set -eu
cd "${1:-.}"

files=$(find crates src tests examples -name '*.rs' -not -path '*/target/*' | sort)

# Test-only modules: `#[cfg(test)]` directly above `mod name;` in a parent
# file; the module's file is `name.rs` or `name/mod.rs` beside the parent.
test_modules=$(for f in $files; do
    awk -v dir="$(dirname "$f")" '
        prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ &&
        $0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;[[:space:]]*$/ {
            name = $0
            sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "", name)
            sub(/;.*/, "", name)
            print dir "/" name ".rs"
            print dir "/" name "/mod.rs"
        }
        { prev = $0 }' "$f"
done)

total=0
non_test=0
for f in $files; do
    n=$(wc -l < "$f")
    total=$((total + n))
    case "$f" in
        tests/* | */tests/*) continue ;;
    esac
    skip=0
    for m in $test_modules; do
        [ "$f" = "$m" ] && skip=1
    done
    [ "$skip" -eq 1 ] && continue
    # Lines before the trailing `#[cfg(test)]` + `mod tests {` block.
    body=$(awk '
        prev_attr && /^mod tests \{/ { cut = NR - 1 }
        { prev_attr = ($0 ~ /^#\[cfg\(test\)\]$/) }
        END { print (cut ? cut - 1 : NR) }' "$f")
    non_test=$((non_test + body))
done

echo "total Rust lines:    $total"
echo "non-test Rust lines: $non_test"
