#!/bin/bash
# make pairs BASE=<commit> WORKLOAD=<name> [N=10] [SEED=1] [CHANGE=HEAD|WORKTREE]
#
# The ledger's rule for a performance claim, as one command: N pairs of
# `bash bench/run.sh --workload W --seed S --seconds 15 --trace 0` — the
# benchmark driver's own invocation — on the parent (BASE) and on the change
# (CHANGE: a commit, or WORKTREE for the working tree as it stands — tracked
# edits, staged or not; a new file counts once it is `git add`ed),
# alternating which side goes first. Each side is a detached `git worktree`
# under bench/out/.build/pairs/, so it builds from the files of one commit
# only, once (the later runs find a warm build cache), and writes nothing
# outside itself. WORKTREE measures the commit `git stash create` makes of
# the edits: the working tree, the index and the stash list stay as they are.
# Printed per end-to-end metric: both medians with their quartiles, the pairs
# the change won (ties count for neither side) and whether the medians are
# further apart than the parent's own quartiles — a gain needs >= 9/10 pairs
# and "yes" there (bench/README.md; /opt/skills/guides/choosing-metrics).
set -euo pipefail
base=${1:?usage: pairs.sh BASE WORKLOAD [N] [SEED] [CHANGE]}
workload=${2:?usage: pairs.sh BASE WORKLOAD [N] [SEED] [CHANGE]}
n=${3:-10} seed=${4:-1} change=${5:-HEAD}

root=$(git rev-parse --show-toplevel)
work="$root/bench/out/.build/pairs"
cleanup() {
	for side in parent change; do
		git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
	done
}
trap cleanup EXIT
cleanup
mkdir -p "$work"
if [ "$change" = WORKTREE ]; then
	change=$(git -C "$root" stash create "pairs: the working tree")
	change=${change:-HEAD} # nothing to stash: the working tree is HEAD
elif ! git -C "$root" diff --quiet HEAD; then
	echo "pairs: the working tree has uncommitted edits; measuring $change as committed (CHANGE=WORKTREE measures them)" >&2
fi
git -C "$root" worktree add --detach "$work/parent" "$base" >/dev/null
git -C "$root" worktree add --detach "$work/change" "$change" >/dev/null

# run SIDE: one ledger run; the last output line is the driver's JSON object.
run() {
	(cd "$work/$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 15 --trace 0) | tail -n 1
}
out="$work/$workload-seed$seed" # raw runs stay here after the worktrees go
: >"$out-parent.jsonl" >"$out-change.jsonl"
for ((i = 1; i <= n; i++)); do
	order="parent change"
	((i % 2 == 0)) && order="change parent"
	for side in $order; do
		run "$side" >>"$out-$side.jsonl"
	done
	echo "pair $i/$n done" >&2
done

echo "# $workload seed $seed: parent $(git -C "$root" rev-parse --short "$base") vs change $(git -C "$root" rev-parse --short "$change"), $n pairs"
awk -v n="$n" '
function value(line, name,    s) {
	if (!match(line, "\"" name "\":\\{\"value\":[-0-9.eE+]+")) return "nan"
	s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s); return s + 0
}
function quantile(a, cnt, q,    pos, lo) {
	pos = (cnt - 1) * q; lo = int(pos)
	return lo + 1 >= cnt ? a[cnt] : a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
}
function sorted(src, dst, cnt,    i, j, t) {
	for (i = 1; i <= cnt; i++) dst[i] = src[i]
	for (i = 2; i <= cnt; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
BEGIN { split("tasks_per_s allocs_per_task bytes_per_task peak_mem_mb op_p50_us setup_s", names, " ") }
{
	side = (FILENAME ~ /-parent\.jsonl$/) ? "p" : "c"
	row[side]++
	for (k in names) v[side, names[k], row[side]] = value($0, names[k])
	if ($0 !~ /"failed":0[,}]/) failed[side]++
}
END {
	printf "%-16s %38s %38s %6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "medians apart by more than parent IQR"
	for (k = 1; k <= 6; k++) {
		m = names[k]; won = 0
		for (i = 1; i <= n; i++) {
			p[i] = v["p", m, i]; c[i] = v["c", m, i]
			if (m == "tasks_per_s" ? c[i] > p[i] : c[i] < p[i]) won++
		}
		sorted(p, ps, n); sorted(c, cs, n)
		pm = quantile(ps, n, .5); cm = quantile(cs, n, .5); iqr = quantile(ps, n, .75) - quantile(ps, n, .25)
		gap = (m == "tasks_per_s") ? cm - pm : pm - cm
		printf "%-16s %14.6g [%9.6g, %9.6g] %14.6g [%9.6g, %9.6g] %3d/%-2d %s\n", m, pm, quantile(ps, n, .25), quantile(ps, n, .75), cm, quantile(cs, n, .25), quantile(cs, n, .75), won, n, (gap > iqr ? "yes" : "no")
	}
	printf "runs with failed operations: parent %d, change %d\n", failed["p"], failed["c"]
}' "$out-parent.jsonl" "$out-change.jsonl"
