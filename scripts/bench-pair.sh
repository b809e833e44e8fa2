#!/usr/bin/env bash
# Paired, alternating end-to-end benchmark runs of two commits.
#
#   scripts/bench-pair.sh [-n SEEDS] [-s FIRST_SEED] [-w WORKLOADS] [-o FILE] [-t] PARENT [CHILD]
#
# Clones PARENT and CHILD (default HEAD) of this repository into a
# temporary directory and, for every workload and every seed, runs
# `bash benchmark/run.sh -workload W -seed S` once on each side: the
# parent first on odd seeds, the child first on even ones, so drift on a
# shared machine falls on both sides alike. Each run's final JSON line is
# appended to FILE, tagged with side, sha, seed, workload and the machine
# (nproc, CPU model, go version). Then, for every end-to-end metric of
# BENCHMARK.json, it prints the median [q1–q3] of each side, the ratio of
# the medians beside the metric's bound (a ratio worse than the bound is
# marked "beyond") and how many pairs the child won, as a markdown table
# built from every line of FILE for the two commits. A child line pairs
# with the parent line of the same workload and seed nearest to it in
# FILE, each parent line once, so batches appended to one FILE against
# the same parent each read the parent runs interleaved with them.
#
# With -t it then runs `benchmark/run.sh -trace 1` three times per side
# and workload (seeds FIRST_SEED..FIRST_SEED+2, alternating which side
# goes first as above), appends those lines tagged trace: true, and
# prints a second table of BENCHMARK.json's per-layer metrics: the
# median [q1–q3] of each side over every traced line of FILE.
# Traced lines never enter the end-to-end table or the exit status: a
# traced run measures the layers, not the latency the gate reads.
#
#   -n SEEDS      seeds per workload (default 6); 0 prints the table only
#   -s FIRST_SEED first seed (default 1); seeds run FIRST_SEED..+SEEDS-1
#   -w WORKLOADS  comma-separated workloads (default: every workload in
#                 BENCHMARK.json)
#   -o FILE       the JSON-lines file to append to (default BENCH.jsonl)
#   -t            add three traced runs per side and workload, and the
#                 per-layer table
#
# Quartiles are Python's statistics.quantiles(n=4) (the exclusive method),
# as in benchmark/README.md "Noise and bounds". Needs git and jq.
#
# Exit status: 0; 2 on a usage error; 3, after the table, when a ratio is
# beyond its bound or a run of either commit reported correct false or
# failed operations.
set -euo pipefail

seeds=6 first=1 workloads="" out=BENCH.jsonl traced=0
while getopts "n:s:w:o:t" opt; do
	case $opt in
	n) seeds=$OPTARG ;;
	s) first=$OPTARG ;;
	w) workloads=$OPTARG ;;
	o) out=$OPTARG ;;
	t) traced=1 ;;
	*) sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] && [ $# -le 2 ] || { echo "usage: $0 [-n SEEDS] [-s FIRST_SEED] [-w WORKLOADS] [-o FILE] [-t] PARENT [CHILD]" >&2; exit 2; }

repo=$(git rev-parse --show-toplevel)
parent=$(git -C "$repo" rev-parse --verify "$1^{commit}")
child=$(git -C "$repo" rev-parse --verify "${2:-HEAD}^{commit}")
bench_json=$(git -C "$repo" show "$child:BENCHMARK.json")
[ -n "$workloads" ] || workloads=$(jq -r '[.workloads[].name] | join(",")' <<<"$bench_json")

if [ "$seeds" -gt 0 ] || ((traced)); then
	cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
	machine=$(jq -nc --argjson nproc "$(nproc)" --arg cpu "${cpu:-unknown}" --arg go "$(go version)" \
		'{nproc: $nproc, cpu: $cpu, go: $go}')
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	mkdir "$tmp/gocache"
	for side in parent child; do
		sha=${!side}
		git clone -q --no-checkout "$repo" "$tmp/$side"
		git -C "$tmp/$side" checkout -q --detach "$sha"
		# One Go build cache for both checkouts: the standard library
		# compiles once, not once a side.
		mkdir -p "$tmp/$side/.bench_build"
		ln -s "$tmp/gocache" "$tmp/$side/.bench_build/gocache"
	done

	run() { # side workload seed trace
		local sha=${!1} line
		line=$(cd "$tmp/$1" && bash benchmark/run.sh -workload "$2" -seed "$3" -trace "$4" | tail -n 1) || true
		if ! jq -e 'type == "object"' >/dev/null 2>&1 <<<"$line"; then
			line='{"correct":false,"error":"no result line"}'
		fi
		jq -c --arg side "$1" --arg sha "$sha" --argjson seed "$3" --arg workload "$2" --argjson machine "$machine" --argjson trace "$4" \
			'. + {side: $side, sha: $sha, seed: $seed, workload: $workload, machine: $machine} + (if $trace == 1 then {trace: true} else {} end)' \
			<<<"$line" >>"$out"
		echo "$2 seed $3 $1 ${sha:0:12}$( ((! $4)) || echo " traced"): $(jq -c '{correct, failed}' <<<"$line")" >&2
	}

	pair() { # workload seed trace: the parent first on odd seeds
		if (($2 % 2)); then
			run parent "$@"
			run child "$@"
		else
			run child "$@"
			run parent "$@"
		fi
	}

	for w in ${workloads//,/ }; do
		for ((s = first; s < first + seeds; s++)); do
			pair "$w" "$s" 0
		done
	done
	if ((traced)); then
		for w in ${workloads//,/ }; do
			for ((s = first; s < first + 3; s++)); do
				pair "$w" "$s" 1
			done
		done
	fi
fi

echo "parent ${parent:0:12}, child ${child:0:12}"
echo
# Median and quartiles, shared by both tables. quartile is
# statistics.quantiles(n=4), method="exclusive"; one value is its own
# quartiles.
stats='
	def median: sort | if length == 0 then null elif length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def quartile($i): sort as $d | ($d | length) as $n | ($i * ($n + 1)) as $p
		| if $n < 2 then $d[0] else
			([1, ([($p / 4 | floor), $n - 1] | min)] | max) as $j | ($p - $j * 4) as $delta
			| ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4 end;'
table=$(
echo "| workload | metric | parent median [q1–q3] | child median [q1–q3] | child/parent | bound | pairs child better |"
echo "|---|---|---|---|---|---|---|"
jq -rs --arg parent "$parent" --arg child "$child" --arg workloads "$workloads" \
	--argjson e2e "$(jq -c '.end_to_end' <<<"$bench_json")" "$stats"'
	to_entries | map(.value + {line: .key})
	| map(select((.sha == $parent or .sha == $child) and .trace != true)) as $runs
	| $workloads | split(",")[] as $w
	| ($runs | map(select(.workload == $w))) as $wr
	# Each child line pairs with the parent line of its seed nearest to
	# it in FILE, the run interleaved with it, and each parent line
	# serves one pair: a second batch against the same parent reads its
	# own parent runs.
	| (reduce ($wr[] | select(.sha == $child)) as $c ({used: [], pairs: []};
		. as $acc
		| ([$wr[] | select(.sha == $parent and .seed == $c.seed and (.line as $l | any($acc.used[]; . == $l) | not))]
		  | min_by(.line - $c.line | if . < 0 then -. else . end)) as $p
		| if $p == null then $acc else $acc | .used += [$p.line] | .pairs += [{p: $p, c: $c}] end)
	  | .pairs) as $lines
	| $e2e[] as $m
	| [$lines[] | {p: .p.metrics[$m.name].value, c: .c.metrics[$m.name].value}
	  | select(.p != null and .c != null)] as $pairs
	| select($pairs | length > 0)
	| [$w, $m.name,
	   ([$pairs[].p] | median, quartile(1), quartile(3)),
	   ([$pairs[].c] | median, quartile(1), quartile(3)),
	   ([$pairs[] | select(if $m.better == "lower" then .c < .p else .c > .p end)] | length),
	   ($pairs | length), $m.bound, $m.better] | @tsv
' "$out" | awk -F'\t' '{
	ratio = $3 == 0 ? "n/a" : sprintf("%.3f", $6 / $3)
	# Worse than the parent by more than the bound, as the gate reads it.
	if ($3 != 0 && ($12 == "lower" ? $6 / $3 > 1 + $11 : $6 / $3 < 1 - $11)) ratio = ratio " **beyond**"
	printf "| %s | %s | %.4g [%.4g–%.4g] | %.4g [%.4g–%.4g] | %s | %g %% | %d/%d |\n", $1, $2, $3, $4, $5, $6, $7, $8, ratio, $11 * 100, $9, $10
}'
)
echo "$table"
echo
# The traced runs' per-layer metrics, median [q1–q3] of each side's
# traced lines.
layers=$(jq -rs --arg parent "$parent" --arg child "$child" --arg workloads "$workloads" \
	--argjson layer "$(jq -c '.per_layer' <<<"$bench_json")" "$stats"'
	def spread: if length == 0 then "-", "-", "-" else median, quartile(1), quartile(3) end;
	map(select((.sha == $parent or .sha == $child) and .trace == true)) as $runs
	| $workloads | split(",")[] as $w
	| $layer[] as $m
	| [$runs[] | select(.workload == $w and .sha == $parent) | .metrics[$m.name].value | numbers] as $p
	| [$runs[] | select(.workload == $w and .sha == $child) | .metrics[$m.name].value | numbers] as $c
	| select($p != [] or $c != [])
	| [$w, $m.name, $m.unit, ($p | spread), ($c | spread), ($p | length), ($c | length), $m.better] | @tsv
' "$out" | awk -F'\t' '
	function side(m, q1, q3) { return m == "-" ? "-" : sprintf("%.4g [%.4g–%.4g]", m, q1, q3) }
	{
	# A ratio says nothing when a side is not positive (overhead_pct can be).
	ratio = ($4 == "-" || $7 == "-" || $4 <= 0 || $7 < 0) ? "n/a" : sprintf("%.3f", $7 / $4)
	printf "| %s | %s | %s | %s | %s | %s | %s | %d/%d |\n", $1, $2, $3, side($4, $5, $6), side($7, $8, $9), ratio, $12, $10, $11
}')
if [ -n "$layers" ]; then
	echo "Per-layer metrics of the traced runs (median [q1–q3] of each side's traced lines):"
	echo
	echo "| workload | metric | unit | parent median [q1–q3] | child median [q1–q3] | child/parent | better | traced runs parent/child |"
	echo "|---|---|---|---|---|---|---|---|"
	echo "$layers"
	echo
fi
read -r runs incorrect failed < <(jq -rs --arg parent "$parent" --arg child "$child" '
	map(select((.sha == $parent or .sha == $child) and .trace != true))
	| [length, (map(select(.correct != true)) | length), (map(.failed // 0) | add // 0)] | @tsv
' "$out")
echo "runs: $runs, correct false: $incorrect, failed ops: $failed"

status=0
if grep -q beyond <<<"$table"; then
	echo "bench-pair: a ratio is beyond its bound" >&2
	status=3
fi
if [ "$incorrect" != 0 ] || [ "$failed" != 0 ]; then
	echo "bench-pair: $incorrect runs reported correct false, $failed operations failed" >&2
	status=3
fi
exit $status
