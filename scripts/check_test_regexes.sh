#!/bin/sh
# Stale test-selector check. Every `go test` line of the Makefile and of
# .github/workflows/ci.yml (continued lines joined) that passes -run,
# -bench or -fuzz a regex must still select something with it: each
# |-alternative of the regex — other than ^$ and . — must match at least
# one test (-run: Test, Fuzz and Example functions), benchmark (-bench) or
# fuzz target (-fuzz) of the line's packages, as `go test -list` lists
# them. An alternative that matches nothing names a test that was renamed
# or deleted, and the line silently stopped running it. A subtest part
# (after the first /) is not checked: -list names top-level functions only.
#
# Usage: scripts/check_test_regexes.sh   (or: make check-regexes)
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

# One record per selector: file, flag, regex, -C directory ("." without
# one) and packages, tab-separated. Make's $(GO) and $$ are undone; a
# command ends at the first |, &&, ||, ; or redirection after `go test`.
for f in Makefile .github/workflows/ci.yml; do
    awk -v file="$f" '
        { line = cont $0; cont = "" }
        /\\$/ { sub(/\\$/, "", line); cont = line " "; next }
        {
            gsub(/\$\(GO\)/, "go", line)
            gsub(/\$\$/, "$", line)
            n = split(line, tok, /[ \t]+/)
            for (i = 1; i < n; i++) {
                if (tok[i] != "go" || tok[i + 1] != "test")
                    continue
                dir = "."; pkgs = ""; nsel = 0
                for (j = i + 2; j <= n; j++) {
                    t = tok[j]
                    if (t ~ /^(\||&&|\|\||;|>|2>|<)/)
                        break
                    if (t ~ /^-(run|bench|fuzz)=/) {
                        split(t, kv, "=")
                        flag[++nsel] = substr(kv[1], 2); re[nsel] = substr(t, length(kv[1]) + 2)
                    } else if (t ~ /^-(run|bench|fuzz)$/) {
                        flag[++nsel] = substr(t, 2); re[nsel] = tok[++j]
                    } else if (t == "-C") {
                        dir = tok[++j]
                    } else if (t ~ /^-(count|timeout|benchtime|fuzztime|p|cpu|tags|o|parallel)$/) {
                        j++
                    } else if (t !~ /^-/) {
                        pkgs = pkgs (pkgs == "" ? "" : " ") t
                    }
                }
                for (k = 1; k <= nsel; k++) {
                    r = re[k]
                    gsub(/^["\047]|["\047]$/, "", r)
                    printf "%s\t%s\t%s\t%s\t%s\n", file, flag[k], r, dir, pkgs
                }
                i = j
            }
        }
    ' "$f"
done >"$WORK/selectors"

if [ ! -s "$WORK/selectors" ]; then
    echo "check-regexes: FAIL — found no -run/-bench/-fuzz selector to check" >&2
    exit 2
fi

# listing DIR PKGS prints the test functions of the packages, one a line,
# from a cache keyed by the pair.
listing() {
    key=$(printf '%s %s' "$1" "$2" | cksum | cut -d' ' -f1)
    if [ ! -f "$WORK/list.$key" ]; then
        # shellcheck disable=SC2086 # PKGS is a list of words
        if ! go test -C "$1" -vet=off -list . $2 >"$WORK/out.$key" 2>&1; then
            cat "$WORK/out.$key" >&2
            echo "check-regexes: FAIL — go test -list could not list $2 (in $1)" >&2
            exit 1
        fi
        grep -E '^(Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*$' "$WORK/out.$key" >"$WORK/list.$key" || true
    fi
    cat "$WORK/list.$key"
}

bad=0
checked=0
tab=$(printf '\t')
while IFS="$tab" read -r file flag regex dir pkgs; do
    [ -n "$pkgs" ] || pkgs=.
    case "$flag" in
    run) kind='^(Test|Fuzz|Example)' ;;
    bench) kind='^Benchmark' ;;
    fuzz) kind='^Fuzz' ;;
    esac
    listing "$dir" "$pkgs" >"$WORK/all"
    grep -E "$kind" "$WORK/all" >"$WORK/names" || true
    # Top-level alternatives of the regex, one a line.
    printf '%s\n' "$regex" | tr '|' '\n' >"$WORK/alts"
    while read -r alt; do
        case "$alt" in '^$' | '.' | '') continue ;; esac
        alt=${alt%%/*}
        checked=$((checked + 1))
        if ! grep -Eq -- "$alt" "$WORK/names"; then
            echo "check-regexes: $file: go test -$flag '$regex' $pkgs: '$alt' selects nothing" >&2
            bad=$((bad + 1))
        fi
    done <"$WORK/alts"
done <"$WORK/selectors"

if [ "$bad" -gt 0 ]; then
    echo "check-regexes: FAIL — $bad of $checked alternatives select no test" >&2
    exit 1
fi
echo "check-regexes: OK — $checked alternatives over $(wc -l <"$WORK/selectors" | tr -d ' ') selectors each select a test"
