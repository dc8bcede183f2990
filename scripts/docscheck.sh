#!/bin/sh
# docscheck fails when README.md or DESIGN.md names something that does
# not exist: a repository path under cmd/, internal/, scripts/, tools/,
# examples/ or testdata/, or a `make` target, wherever it appears in an
# inline code span or a fenced code block. Paths under profiles/ are
# generated by `make profile` and are exempt. `make docs-check` runs this.
set -eu

status=0
for doc in README.md DESIGN.md; do
    # Every inline code span and every fenced-block line, one per line.
    code="$(awk '
        /^```/ { fence = !fence; next }
        fence { print; next }
        {
            line = $0
            while (match(line, /`[^`]+`/)) {
                print substr(line, RSTART + 1, RLENGTH - 2)
                line = substr(line, RSTART + RLENGTH)
            }
        }' "$doc")"

    paths="$(printf '%s\n' "$code" | tr -s ' \t"'"'"'(),=' '\n' |
        sed -e 's|^\./||' -e 's|:[0-9].*$||' -e 's|[.:;]*$||' |
        grep -E '^(cmd|internal|scripts|tools|examples|testdata)/' | sort -u)" || true
    for p in $paths; do
        if [ ! -e "$p" ]; then
            echo "docscheck: $doc names $p, which does not exist" >&2
            status=1
        fi
    done

    targets="$(printf '%s\n' "$code" |
        sed -n 's/^[[:space:]]*make \([A-Za-z0-9_-][A-Za-z0-9_-]*\).*/\1/p' | sort -u)"
    for t in $targets; do
        if ! grep -q "^$t:" Makefile; then
            echo "docscheck: $doc names make target $t, which the Makefile lacks" >&2
            status=1
        fi
    done
done
[ "$status" -eq 0 ] && echo "docscheck: ok   README.md and DESIGN.md name only paths and make targets that exist"
exit "$status"
