#!/bin/sh
# escape_baseline.sh — gate the compiler's escape analysis on the
# hot-path packages against a checked-in baseline.
#
# The ringvet hotpath analyzer bans allocating *constructs*; this gate
# watches the compiler's own escape decisions, which also move when an
# inlining or devirtualization change makes a previously stack-bound
# value escape. Together they bracket the 0 allocs/op invariant from
# both sides (source shape and codegen).
#
# Usage:
#   scripts/escape_baseline.sh check    # diff against docs/escape_baseline.txt (CI)
#   scripts/escape_baseline.sh update   # regenerate the baseline after a reviewed change
#
# Lines are normalized (line/column numbers stripped, deduplicated) so
# the baseline survives unrelated edits; a brand-new escape in a hot
# package still produces a new line and fails the check.

set -eu
cd "$(dirname "$0")/.."

BASELINE=docs/escape_baseline.txt
PACKAGES="./internal/service ./internal/hist ./internal/mmu ./internal/tenant ./rings"

current() {
	# shellcheck disable=SC2086  # PACKAGES must word-split
	go build -gcflags='-m' $PACKAGES 2>&1 |
		grep -E 'escapes to heap|moved to heap' |
		sed -E 's|^\./||; s/:[0-9]+:[0-9]+:/:/' |
		grep -E '^(internal|rings)/' |
		sort -u
}

case "${1:-check}" in
update)
	current >"$BASELINE"
	echo "wrote $(wc -l <"$BASELINE") escape lines to $BASELINE"
	;;
check)
	got=$(mktemp)
	trap 'rm -f "$got"' EXIT
	current >"$got"
	if new=$(comm -13 "$BASELINE" "$got") && [ -n "$new" ]; then
		echo "new heap escapes in hot-path packages (not in $BASELINE):" >&2
		echo "$new" >&2
		echo "" >&2
		echo "If every new escape is intentional and off the decision path," >&2
		echo "regenerate with: scripts/escape_baseline.sh update" >&2
		exit 1
	fi
	echo "escape analysis matches $BASELINE"
	;;
*)
	echo "usage: $0 [check|update]" >&2
	exit 2
	;;
esac
