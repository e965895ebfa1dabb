#!/usr/bin/env bash
# Compare a change's training outputs with its base commit's, byte for byte.
#
#     .github/compare_bytes.sh BASE [HEAD]
#
# Run from the root of a git checkout. BASE (and HEAD, when given) are
# checked out with `git worktree`; without HEAD the checkout's own tree is
# the change. Each tree trains the two 35-episode runs of
# tests/test_golden.py (seed 0, and seed 1 with scalar_reward) with its own
# code and its own configs/default.json, then writes the knowledge snapshot
# (kb.json) of the store restored from the run's checkpoint and runs
# `qeloop replay` of the run's feedback.jsonl into that kb.json, which writes
# kb_after_replay.json. The six output files, kb.json and
# kb_after_replay.json of each run are compared with `cmp`. The files that
# moved are listed, each with its base and head size in bytes, on standard
# output and, under GitHub Actions, in $GITHUB_STEP_SUMMARY; so are, for a
# moved checkpoint.json, the dotted JSON paths added, removed or changed (at
# most 20; a list is compared as a whole at its path).
#
# It fails when metrics.csv, checkpoint.json, kb.json or kb_after_replay.json
# moved but the change leaves tests/test_golden.py as it was: a change that
# moves pinned bytes on purpose re-pins them in the same change.
set -euo pipefail

base=$(git rev-parse --verify "$1^{commit}")
head=${2:+$(git rev-parse --verify "$2^{commit}")}
work=$(mktemp -d)
cleanup() {
    git worktree remove --force "$work/base" 2>/dev/null || true
    git worktree remove --force "$work/head" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git worktree add --quiet --detach "$work/base" "$base"
if [ -n "$head" ]; then
    git worktree add --quiet --detach "$work/head" "$head"
    head_tree=$work/head
else
    head_tree=$(pwd)
fi

# The runs of tests/test_golden.py's RUNS, at its EPISODES.
runs=("seed0-full:seed=0" "seed1-scalar_reward:seed=1 ablation.scalar_reward=true")
files=(metrics.csv ppo_updates.csv dqn_steps.csv events.jsonl feedback.jsonl checkpoint.json kb.json kb_after_replay.json)

for side in base head; do
    tree=$work/base
    [ "$side" = head ] && tree=$head_tree
    for run in "${runs[@]}"; do
        sets=()
        for assignment in ${run#*:} episode_count=35; do
            sets+=(--set "$assignment")
        done
        out=$work/out/$side/${run%%:*}
        (cd "$tree" && PYTHONPATH="$tree/src" python -m qeloop.cli train \
            --config configs/default.json "${sets[@]}" --out "$out" > /dev/null)
        (cd "$tree" && PYTHONPATH="$tree/src" python -c "import sys
from qeloop.trainer import TrainingSystem
TrainingSystem.restore(sys.argv[1]).kb.save_snapshot(sys.argv[2])" "$out/checkpoint.json" "$out/kb.json")
        (cd "$tree" && PYTHONPATH="$tree/src" python -m qeloop.cli replay \
            --config configs/default.json "${sets[@]}" --kb "$out/kb.json" --out "$out" \
            "$out/feedback.jsonl" > /dev/null)
    done
done

# The dotted paths of the JSON leaves that differ between two files, where a
# leaf is anything but an object.
json_paths() {
    python3 - "$1" "$2" <<'PY'
import json
import sys


def leaves(node, path, out):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            leaves(value, f"{path}.{key}" if path else key, out)
    else:
        out[path] = node
    return out


base, head = (leaves(json.load(open(name, encoding="utf-8")), "", {}) for name in sys.argv[1:3])
changes = []
for path in sorted(base.keys() | head.keys()):
    if path not in base:
        changes.append((path, "added"))
    elif path not in head:
        changes.append((path, "removed"))
    elif base[path] != head[path]:
        changes.append((path, "changed"))
for path, change in changes[:20]:
    print(f"  - `{path}` {change}")
if len(changes) > 20:
    print(f"  - and {len(changes) - 20} more")
PY
}

moved=()
for run in "${runs[@]}"; do
    for name in "${files[@]}"; do
        if ! cmp --silent "$work/out/base/${run%%:*}/$name" "$work/out/head/${run%%:*}/$name"; then
            moved+=("${run%%:*}/$name")
        fi
    done
done

if [ -n "$head" ]; then
    git diff --quiet "$base" "$head" -- tests/test_golden.py && repinned=no || repinned=yes
else
    git diff --quiet "$base" -- tests/test_golden.py && repinned=no || repinned=yes
fi

{
    echo "### Output bytes against ${base:0:12}"
    if [ ${#moved[@]} -eq 0 ]; then
        echo "No output file moved."
    else
        echo "Moved:"
        for path in "${moved[@]}"; do
            echo "- \`$path\` (base $(wc -c < "$work/out/base/$path") bytes, head $(wc -c < "$work/out/head/$path") bytes)"
            if [ "${path##*/}" = checkpoint.json ]; then
                json_paths "$work/out/base/$path" "$work/out/head/$path"
            fi
        done
    fi
    echo "tests/test_golden.py changed: $repinned"
} | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"

for path in "${moved[@]}"; do
    case $path in
        */metrics.csv | */checkpoint.json | */kb.json | */kb_after_replay.json)
            if [ "$repinned" = no ]; then
                echo "$path moved, but tests/test_golden.py is unchanged: re-pin it and say why" >&2
                exit 1
            fi
            ;;
    esac
done
