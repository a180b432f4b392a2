#!/usr/bin/env bash
# deadcode.sh — fail on library code that no binary links (`make deadcode`).
#
# Builds every main package of the repository (cmd/*, examples/* and
# the perfbench module) with inlining disabled, so that a function
# whose only callers were inlined still shows up as its own symbol.
# Then it compares the text symbols `go tool nm` finds in those
# binaries against the top-level funcs and methods declared in the
# non-test files under internal/ (fixtures in internal/lint/testdata
# excepted) and in positres.go. A declaration no binary links is an
# error unless scripts/deadcode.allow lists it.
#
# scripts/deadcode.allow holds one entry per line: a file (path from
# the repo root) or a symbol, then a reason. A file entry covers every
# unlinked declaration in that file. Symbols are spelled as they are
# printed below, e.g. `positres/internal/posit.Posit32.Sub` (pointer
# and value receivers both print as `Type.Method`). Blank lines and
# lines starting with '#' are ignored. An entry without a reason, and
# an entry that no longer matches an unlinked declaration, are errors
# too, so the list cannot silently outlive what it excuses.
#
# Exit status: 0 when every unlinked declaration is allowed, 1 when
# one is not or the allow list is malformed or stale, 2 when a build
# fails.
set -euo pipefail

cd "$(dirname "$0")/.."

GO=${GO:-go}
allow_file=scripts/deadcode.allow

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin"

# 1. Every main package, inlining off.
if ! $GO build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...; then
	echo "deadcode: building the main packages failed" >&2
	exit 2
fi
if ! (cd perfbench && $GO build -gcflags=all=-l -o "$tmp/bin/perfbench" .); then
	echo "deadcode: building perfbench failed" >&2
	exit 2
fi

# 2. Linked symbols of this module, normalised to pkg.Func or
#    pkg.Type.Method: generic instantiations, closures, method-value
#    wrappers and pointer receivers are folded onto their declaration.
for bin in "$tmp"/bin/*; do
	$GO tool nm "$bin"
done |
	awk '$2 == "T" || $2 == "t" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
	grep -E '^positres(/internal/[a-z0-9_]+)?\.' |
	sed -E ':a; s/\[[^][]*\]//; ta
		s/-fm$//; s/\.\(\*([A-Za-z0-9_]+)\)\./.\1./
		:b; s/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$//; tb' |
	sort -u >"$tmp/linked"

# 3. Declared top-level funcs and methods, as "symbol<TAB>file".
{
	find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/lint/testdata/*'
	echo positres.go
} | sort | while read -r file; do
	dir=$(dirname "$file")
	pkg=positres
	if [ "$dir" != "." ]; then
		pkg="positres/$dir"
	fi
	awk -v pkg="$pkg" -v file="$file" '
		/^func / {
			line = $0
			sub(/^func /, "", line)
			typ = ""
			if (line ~ /^\(/) {
				recv = line
				sub(/^\(/, "", recv)
				sub(/\).*/, "", recv)
				sub(/\[.*/, "", recv)
				gsub(/\*/, "", recv)
				n = split(recv, w, " ")
				typ = w[n] "."
				sub(/^\([^)]*\) */, "", line)
			}
			if (!match(line, /^[A-Za-z_][A-Za-z0-9_]*/)) next
			name = substr(line, 1, RLENGTH)
			if (typ == "" && (name == "init" || name == "_")) next
			printf "%s.%s%s\t%s\n", pkg, typ, name, file
		}' "$file"
done | sort -u >"$tmp/declared"

# 4. Declared but not linked.
awk -F'\t' 'NR == FNR { linked[$0] = 1; next } !($1 in linked)' \
	"$tmp/linked" "$tmp/declared" >"$tmp/unlinked"

# 5. Apply the allow list.
status=0
: >"$tmp/allow"
if [ -f "$allow_file" ]; then
	lineno=0
	while IFS= read -r entry || [ -n "$entry" ]; do
		lineno=$((lineno + 1))
		case "$entry" in
		'' | '#'*) continue ;;
		esac
		read -r key reason <<<"$entry"
		if [ -z "$reason" ]; then
			echo "$allow_file:$lineno: entry '$key' has no reason" >&2
			status=1
			continue
		fi
		printf '%s\t%d\n' "$key" "$lineno" >>"$tmp/allow"
	done <"$allow_file"
fi

awk -F'\t' -v allow_file="$allow_file" '
	FILENAME == ARGV[1] { allowed[$1] = $2; next }
	{
		if ($1 in allowed) { used[$1] = 1; next }
		if ($2 in allowed) { used[$2] = 1; next }
		printf "deadcode: %s (%s) is linked into no binary\n", $1, $2
		bad = 1
	}
	END {
		for (k in allowed) {
			if (!(k in used)) {
				printf "%s:%d: stale entry %s matches no unlinked declaration\n", allow_file, allowed[k], k
				bad = 1
			}
		}
		exit bad
	}' "$tmp/allow" "$tmp/unlinked" >"$tmp/report" || status=1
sort "$tmp/report" >&2

declared=$(wc -l <"$tmp/declared")
unlinked=$(wc -l <"$tmp/unlinked")
if [ "$status" -ne 0 ]; then
	echo "deadcode: FAIL ($unlinked of $declared declarations unlinked; delete them or allow them with a reason in $allow_file)" >&2
	exit 1
fi
echo "deadcode: ok ($declared declarations, $unlinked unlinked, all allowed)"
