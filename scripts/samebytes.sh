#!/bin/sh
# samebytes.sh REV — byte identity of forksim's outputs against a base
# revision. Builds cmd/forksim from the committed tree at REV (extracted
# with git archive into a temporary directory) and from the working tree,
# runs both on the same inputs and diffs each pair of output directories,
# stdout included:
#
#   -days 270 -out, at -parallelism 1, 2 and 0, for seeds 1 and 2;
#   -mode full -storage disk -days 3 (the -datadir), for seeds 1 and 2.
#
# Each pair is removed once compared, so at most two runs' outputs
# (about 1 GB for a 270-day export) are on disk at a time. Exits non-zero
# on any difference or failed run. Usage: make samebytes BASE=<rev>.
set -eu

rev=${1:?usage: samebytes.sh <rev>}
GO=${GO:-go}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && "$GO" build -o "$tmp/base" ./cmd/forksim)
(cd "$root" && "$GO" build -o "$tmp/new" ./cmd/forksim)

fail=0
# same ARGS... runs both binaries with ARGS in fresh directories (so a
# relative -out or -datadir lands inside them) and diffs the directories.
same() {
	for side in base new; do
		mkdir "$tmp/$side-run"
		if ! (cd "$tmp/$side-run" && "$tmp/$side" "$@" >stdout 2>"$tmp/$side-stderr"); then
			echo "samebytes: $side forksim $* failed:" >&2
			cat "$tmp/$side-stderr" >&2
			exit 1
		fi
	done
	if diff -r "$tmp/base-run" "$tmp/new-run" >"$tmp/diff"; then
		echo "same    forksim $*"
	else
		echo "DIFFERS forksim $*"
		head -n 20 "$tmp/diff"
		fail=1
	fi
	rm -rf "$tmp/base-run" "$tmp/new-run"
}

for seed in 1 2; do
	for par in 1 2 0; do
		same -seed "$seed" -days 270 -parallelism "$par" -out out
	done
	same -seed "$seed" -mode full -storage disk -days 3 -datadir data
done

if [ "$fail" -ne 0 ]; then
	echo "samebytes: outputs differ from $rev" >&2
	exit 1
fi
echo "samebytes: every output identical to $rev"
