#!/bin/sh
# check_docs.sh — documentation lint for CI and local runs.
#
# 1. Every library package (root + internal/...) must carry a
#    `// Package <name>` doc comment; every command under cmd/ a
#    `// Command <name>` one.
# 2. Every relative markdown link in the top-level documents must
#    point at a file that exists.
# 3. Every bare `*.md` file reference in a Go comment must name a file
#    that exists, relative to the repository root or to the Go file.
# 4. Every cmd/ directory must have a row in README's "Command-line
#    tools" table, every `-flag` in that row and in the `Usage:` block
#    of the command's doc comment must be defined in its main.go, and
#    every `func Example...` in the root package's tests must be named
#    in README's "Runnable godoc examples" sentence.
#
# Exits non-zero with a list of violations.
set -eu
cd "$(dirname "$0")/.."

fail=0

# --- package comments -------------------------------------------------
for dir in $(go list -f '{{.Dir}}' ./...); do
    rel=${dir#"$(pwd)"/}
    case "$rel" in
    "$(pwd)") rel="." ;;
    esac
    case "$rel" in
    cmd/*)
        pattern='^// Command ' ;;
    *)
        pattern='^// Package ' ;;
    esac
    if ! grep -lq "$pattern" "$dir"/*.go 2>/dev/null; then
        echo "missing doc comment ($pattern) in package $rel"
        fail=1
    fi
done

# --- markdown links ---------------------------------------------------
for doc in README.md DESIGN.md ROADMAP.md CHANGES.md; do
    [ -f "$doc" ] || { echo "missing top-level document $doc"; fail=1; continue; }
    # Relative links in [text](target) form; external URLs and
    # intra-page anchors are skipped.
    for target in $(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://*|https://*|\#*) continue ;;
        esac
        path=${target%%#*}
        [ -z "$path" ] && continue
        if [ ! -e "$path" ]; then
            echo "$doc: broken link -> $target"
            fail=1
        fi
    done
done

# --- markdown files named in Go comments ------------------------------
# Each `//` comment is cut at its first `//`; URLs are skipped.
refs=$(find . -name '*.go' -not -path './.git/*' -exec grep -Hn '//.*[A-Za-z0-9_-]\.md' {} + |
    while IFS=: read -r file line text; do
        for ref in $(printf '%s\n' "${text#*//}" | grep -oE '[A-Za-z0-9_.:/-]*[A-Za-z0-9_-]\.md([^A-Za-z0-9]|$)' | sed 's/[^A-Za-z0-9]$//'); do
            case "$ref" in
            *://*) continue ;;
            esac
            [ -e "$ref" ] || [ -e "$(dirname "$file")/$ref" ] ||
                echo "$file:$line: names missing file $ref"
        done
    done)
if [ -n "$refs" ]; then
    echo "$refs"
    fail=1
fi

# --- README inventory -------------------------------------------------
# Every command has a row in README's "Command-line tools" table, and
# every godoc example is named in the sentence that lists them, which
# runs from "Runnable godoc examples:" to the next blank line. Every
# -flag in a command's row (its last column) and in the tab-indented
# lines of its main.go `// Usage:` block (outside `#` remarks) must be
# a flag that main.go defines, so a deleted flag cannot linger in the
# docs.
tab=$(printf '\t')
for dir in cmd/*/; do
    name=$(basename "$dir")
    row=$(sed -n '/^## Command-line tools/,/^## /p' README.md | grep "^| \`$name\` |" || true)
    if [ -z "$row" ]; then
        echo "README.md: command $name has no row in the Command-line tools table"
        fail=1
    fi
    defined=$(sed -n 's/.*flag\.[A-Za-z0-9]*("\([^"]*\)".*/\1/p' "${dir}main.go")
    usage=$(sed -n "/^\/\/ Usage:/,/^\/\/ [^$tab]/s/^\/\/$tab//p" "${dir}main.go" | sed 's/#.*//')
    for flag in $(printf '%s\n%s\n' "$(printf '%s\n' "$row" | awk -F'|' '{print $4}')" "$usage" |
        tr '[`' '  ' | grep -oE '(^| )-[a-z][a-z0-9-]*' | sed 's/^ *-//' | sort -u); do
        if ! printf '%s\n' "$defined" | grep -qx -- "$flag"; then
            echo "$name: documented flag -$flag is not defined in ${dir}main.go"
            fail=1
        fi
    done
done
listed=$(sed -n '/^Runnable godoc examples:/,/^$/p' README.md)
for name in $(sed -n 's/^func \(Example[A-Za-z0-9_]*\)().*/\1/p' ./*_test.go); do
    if ! printf '%s\n' "$listed" | grep -q "\`$name\`"; then
        echo "README.md: godoc example $name is not named in the Runnable godoc examples sentence"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs check failed"
    exit 1
fi
echo "docs check ok"
