#!/usr/bin/env bash
# A/B benchmark of two revisions on the repository benchmark:
#
#   scripts/ab.sh REV_A REV_B [-pairs N] [-seconds S] [-seed K] [-trace T] WORKLOAD...
#
# Each revision is checked out in its own detached git worktree and built
# there by perfbench/run.sh with its own CARGO_TARGET_DIR. Every pair runs
# both sides once per workload; odd pairs run A first, even pairs B first,
# so drift in host load falls on both sides alike. For each workload and
# metric the summary gives each side's median and quartiles, the pairs B
# won by the metric's "better" direction in BENCHMARK.json, and the
# metric's end-to-end bound ("-" for per-layer metrics). Runs that were
# not correct or had failed operations are counted per side.
#
# Defaults: -pairs 10 -seconds 10 -seed 1 -trace 0. The raw result lines
# are kept in $AB_OUT (default: a new temporary directory, printed at the
# end). The worktrees and their builds are removed on exit, and a run in
# progress is stopped first, so no perfbench or laserd outlives the script.
set -euo pipefail

usage() {
	echo "usage: $0 REV_A REV_B [-pairs N] [-seconds S] [-seed K] [-trace T] WORKLOAD..." >&2
	exit 2
}

[ $# -ge 3 ] || usage
rev_a=$1 rev_b=$2
shift 2
pairs=10 seconds=10 seed=1 trace=0
workloads=()
while [ $# -gt 0 ]; do
	case $1 in
	-pairs | -seconds | -trace)
		[[ ${2-} =~ ^[0-9]+$ ]] || usage
		declare "${1#-}=$2"
		shift 2
		;;
	-seed)
		[[ ${2-} =~ ^-?[0-9]+$ ]] || usage
		seed=$2
		shift 2
		;;
	-*) usage ;;
	*)
		workloads+=("$1")
		shift
		;;
	esac
done
[ ${#workloads[@]} -gt 0 ] || usage
[ "$pairs" -ge 1 ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
sha_a=$(git rev-parse --verify "$rev_a^{commit}")
sha_b=$(git rev-parse --verify "$rev_b^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
out=${AB_OUT:-$work/results}
mkdir -p "$out"
raw=$out/raw.txt
: >"$raw"
child=

cleanup() {
	trap - EXIT INT TERM
	if [ -n "$child" ]; then
		# The run is its own process group: the build, perfbench and the
		# laserd it spawns all get the signal.
		kill -TERM -- "-$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
		for _ in $(seq 50); do
			kill -0 -- "-$child" 2>/dev/null || break
			sleep 0.2
		done
		kill -KILL -- "-$child" 2>/dev/null || true
	fi
	for side in a b; do
		if [ -d "$work/$side" ]; then
			git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
		fi
		# The build tree holds a read-only Go module cache.
		chmod -R u+w "$work/$side.build" 2>/dev/null || true
		rm -rf "$work/$side" "$work/$side.build"
	done
	git -C "$root" worktree prune
	if [ "$out" != "$work/results" ]; then
		rm -rf "$work"
	fi
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

git worktree add --quiet --detach "$work/a" "$sha_a"
git worktree add --quiet --detach "$work/b" "$sha_b"

# run SIDE PAIR WORKLOAD: one benchmark run, appended to the raw file as
# "workload pair side correct failed metric value" lines.
run() {
	local side=$1 pair=$2 wl=$3 log=$out/$3-$2-$1
	local status=0
	set -m # the run gets a process group of its own (see cleanup)
	(
		cd "$work/$side"
		CARGO_TARGET_DIR=$work/$side.build exec bash perfbench/run.sh \
			--workload "$wl" --seed "$seed" --seconds "$seconds" --trace "$trace"
	) >"$log.out" 2>"$log.err" </dev/null &
	child=$!
	set +m
	wait "$child" || status=$?
	child=
	local line
	line=$(tail -n 1 "$log.out")
	case $line in
	'{'*) ;;
	*)
		echo "ab: $wl pair $pair side $side exited $status with no result; see $log.err" >&2
		exit 1
		;;
	esac
	local correct failed
	correct=$(grep -o '"correct":[a-z]*' <<<"$line" | cut -d: -f2)
	failed=$(grep -o '"failed":[0-9]*' <<<"$line" | cut -d: -f2)
	grep -o '"[a-z0-9_]*":{"value":[^,}]*' <<<"$line" |
		sed 's/^"\([a-z0-9_]*\)":{"value":/\1 /' |
		while read -r metric value; do
			echo "$wl $pair $side $correct $failed $metric $value"
		done >>"$raw"
	echo "ab: $wl pair $pair side $side: $(grep -c "^$wl $pair $side " "$raw") metrics, correct=$correct failed=$failed" >&2
}

echo "ab: A=$rev_a ($sha_a) B=$rev_b ($sha_b), $pairs pairs of ${seconds}s, seed $seed, trace $trace" >&2
for ((p = 1; p <= pairs; p++)); do
	order="a b"
	if ((p % 2 == 0)); then
		order="b a"
	fi
	for wl in "${workloads[@]}"; do
		for side in $order; do
			run "$side" "$p" "$wl"
		done
	done
done

# spec METRIC FIELD reads a field of the metric's entry in BENCHMARK.json
# at the root of the checkout the script runs in (one metric object per
# line); it prints nothing for a field the entry lacks, such as the bound
# of a per-layer metric.
spec() {
	grep "\"name\": \"$1\"" "$root/BENCHMARK.json" | grep -o "\"$2\": *[\"a-z0-9.]*" | sed 's/.*: *//; s/"//g' || true
}

printf '%-15s %-36s %13s %13s %13s  %13s %13s %13s  %6s %6s  %s\n' \
	workload metric A_q1 A_median A_q3 B_q1 B_median B_q3 B_wins bound bad_runs
for wl in "${workloads[@]}"; do
	for metric in $(awk -v w="$wl" '$1 == w { print $6 }' "$raw" | sort -u); do
		better=$(spec "$metric" better)
		bound=$(spec "$metric" bound)
		awk -v w="$wl" -v m="$metric" -v better="${better:-lower}" -v bound="${bound:--}" '
			function quart(arr, n, q,   pos, lo) {
				pos = 1 + (n - 1) * q
				lo = int(pos)
				return lo >= n ? arr[n] : arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo])
			}
			function sortn(arr, n,   i, j, t) {
				for (i = 2; i <= n; i++)
					for (j = i; j > 1 && arr[j - 1] > arr[j]; j--) {
						t = arr[j]; arr[j] = arr[j - 1]; arr[j - 1] = t
					}
			}
			$1 == w && $6 == m {
				v[$3, $2] = $7 + 0
				if ($3 == "a") a[++na] = $7 + 0; else b[++nb] = $7 + 0
				if ($4 != "true" || $5 != 0) bad[$3]++
			}
			END {
				for (p in v) {
					split(p, k, SUBSEP)
					if (k[1] != "a" || !(("b", k[2]) in v)) continue
					x = v["a", k[2]]; y = v["b", k[2]]
					if ((better == "lower" && y < x) || (better == "higher" && y > x)) wins++
					pairs++
				}
				sortn(a, na); sortn(b, nb)
				printf "%-15s %-36s %13.8g %13.8g %13.8g  %13.8g %13.8g %13.8g  %3d/%-2d %6s  A:%d B:%d\n",
					w, m " (" better ")", quart(a, na, .25), quart(a, na, .5), quart(a, na, .75),
					quart(b, nb, .25), quart(b, nb, .5), quart(b, nb, .75),
					wins, pairs, bound, bad["a"], bad["b"]
			}' "$raw"
	done
done
echo "ab: raw results in $raw" >&2
