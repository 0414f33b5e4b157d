#!/bin/sh
# reach.sh: sort every non-test function in internal/ (internal/analysis
# excepted: only cmd/simlint uses it) into
#
#   product    some product run reaches it,
#   test-only  only the tier-1 tests reach it,
#   unreached  nothing reaches it,
#
# and compare the last two classes with scripts/reach.txt, which lists
# each such function with the reason it is kept.
#
# The product runs are the ones whose output the repository publishes or
# gates on: `make paper` (cmd/paper -exp all -quick), benchmark -check,
# every examples/* program and every `make chaos` line. Each binary is
# built with -cover; its own main package has to be in -coverpkg too, or
# it writes no counters at all. The tests run as `go test ./...` with
# -coverpkg=./internal/...
#
# Usage: scripts/reach.sh [-check]
# Prints the test-only and unreached functions, marking those missing
# from reach.txt (`+`) and the reach.txt lines that no longer match
# (`-`). With -check it exits 1 if there is any such line.
set -eu
cd "$(dirname "$0")/.."

check=0
case "${1:-}" in
-check) check=1 ;;
"") ;;
*)
	echo "usage: scripts/reach.sh [-check]" >&2
	exit 2
	;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov"

# build PKG NAME: a -cover build of main package PKG as $tmp/bin/NAME.
build() {
	go build -cover -coverpkg="./internal/...,$1" -o "$tmp/bin/$2" "$1"
}

# run NAME ARGS...: run $tmp/bin/NAME with its own counter directory.
n=0
run() {
	n=$((n + 1))
	mkdir "$tmp/cov/$n"
	bin=$1
	shift
	if ! GOCOVERDIR="$tmp/cov/$n" "$tmp/bin/$bin" "$@" </dev/null >/dev/null; then
		echo "product run failed: $bin $*" >&2
		exit 1
	fi
}

build ./cmd/paper paper
build ./cmd/chaos chaos
build ./benchmark benchmark
for ex in examples/*/; do
	build "./$ex" "ex_$(basename "$ex")"
done

# cmd/paper and cmd/chaos run with the flags their make targets use.
make -s -n --no-print-directory paper chaos | grep ' run ' >"$tmp/make.txt"
while read -r _ _ pkg args; do
	# shellcheck disable=SC2086 # the make line's flags split on blanks
	run "$(basename "$pkg")" $args
done <"$tmp/make.txt"
run benchmark -check
for ex in examples/*/; do
	run "ex_$(basename "$ex")"
done
for d in "$tmp"/cov/*/; do
	go tool covdata func -i="$d"
done >"$tmp/product.txt"

if ! go test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/test.out" ./... >"$tmp/test.log" 2>&1; then
	cat "$tmp/test.log" >&2
	echo "go test failed" >&2
	exit 1
fi
go tool cover -func="$tmp/test.out" >"$tmp/test.txt"

# funcs.txt: "<file>:<line> <Recv.Name>" for every function declaration.
git ls-files 'internal/*.go' | grep -v '_test\.go$' | grep -v '^internal/analysis/' |
	xargs awk '/^func / {
		s = substr($0, 6)
		recv = ""
		if (s ~ /^\(/) {
			r = substr(s, 2, index(s, ")") - 2)
			s = substr(s, index(s, ")") + 2)
			sub(/\[.*\]/, "", r)
			n = split(r, p, " ")
			t = p[n]
			sub(/^\*/, "", t)
			recv = t "."
		}
		sub(/[[(].*/, "", s)
		print FILENAME ":" FNR, recv s
	}' >"$tmp/funcs.txt"

# classified.txt: "<file> <Recv.Name> <class>" for each function no
# product run reaches. The cover tools print "repro/<file>:<line>:
# <name> <percent>", where the line is that of the declaration or of the
# end of its signature, so each entry counts for the last declaration at
# or before its line; a function is reached at any non-zero percent.
awk '
	function key(f) { sub(/^repro\//, "", f); sub(/:$/, "", f); return f }
	function decl(k, f, l, i, d) {
		f = k
		sub(/:[0-9]+$/, "", f)
		l = k
		sub(/^.*:/, "", l)
		for (i = 1; i <= nf[f] && fl[f, i] <= l + 0; i++)
			d = f ":" fl[f, i]
		return d
	}
	FILENAME == ARGV[1] {
		split($1, a, ":")
		fl[a[1], ++nf[a[1]]] = a[2] + 0
		name[$1] = $2
		next
	}
	FILENAME == ARGV[2] { if ($NF != "0.0%") prod[decl(key($1))] = 1; next }
	{ if ($NF != "0.0%") test[decl(key($1))] = 1 }
	END {
		for (k in name) {
			if (k in prod) continue
			f = k
			sub(/:[0-9]+$/, "", f)
			print f, name[k], ((k in test) ? "test-only" : "unreached")
		}
	}' "$tmp/funcs.txt" "$tmp/product.txt" "$tmp/test.txt" | sort >"$tmp/classified.txt"

# listed.txt: the same three fields from reach.txt, whose lines are
# "<file> <Recv.Name> <class> <reason>"; a line without a reason is
# reported as not matching. Lines of class "option" name a config field
# that only tests set; coverage cannot see that, so they are only
# checked to name a field that still exists.
grep -v '^#' scripts/reach.txt | grep -v '^$' | awk '$3 == "option" { next } NF >= 4 { print $1, $2, $3; next } { print "no-reason:", $0 }' |
	sort >"$tmp/listed.txt"

diff "$tmp/listed.txt" "$tmp/classified.txt" | grep '^[<>]' | sed 's/^</-/; s/^>/+/' >"$tmp/diff.txt" || true
grep -v '^#' scripts/reach.txt | awk '$3 == "option"' | while read -r f field _; do
	grep -q "^[[:space:]]*${field#*.}[[:space:],]" "$f" || echo "- $f $field option"
done >>"$tmp/diff.txt"

echo "product-reached: $(($(wc -l <"$tmp/funcs.txt") - $(wc -l <"$tmp/classified.txt")))"
echo "test-only:       $(grep -c ' test-only$' "$tmp/classified.txt" || true)"
echo "unreached:       $(grep -c ' unreached$' "$tmp/classified.txt" || true)"
echo "reach.txt:       $(wc -l <"$tmp/listed.txt") functions listed"
if [ -s "$tmp/diff.txt" ]; then
	echo "reach.txt does not match (+ missing from it, - listed but not so):"
	cat "$tmp/diff.txt"
	[ "$check" -eq 0 ] || exit 1
else
	echo "reach.txt matches"
fi
