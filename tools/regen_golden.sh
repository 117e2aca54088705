#!/bin/sh
# Regenerate the checked-in golden stdout captures in tests/golden/.
#
# Run from the repository root after an *intentional* behavior
# change (a model bugfix that legitimately moves the numbers), never
# to paper over an unexplained CI diff. Rebuilds first so a stale
# binary can't be captured, runs every golden harness at --jobs=1
# (the CI reference), and prints a git diff summary of what moved.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)

set -eu

build=${1:-build}
golden=tests/golden

if [ ! -f "$golden/README.md" ]; then
    echo "error: run from the repository root" >&2
    exit 1
fi
if [ ! -d "$build" ]; then
    echo "error: no build directory '$build' (cmake -B $build)" >&2
    exit 1
fi

harnesses="fig2_table_size abl_bitsel abl_offline \
fig4_transition_phase fig7_next_phase fig8_sweep adversarial_sweep \
fault_sweep"

cmake --build "$build" --target $harnesses

for h in $harnesses; do
    echo "regenerating $golden/$h.stdout" >&2
    case $h in
    adversarial_sweep)
        # Captured with the CI floors so the "all rows meet their
        # family floors" trailer is part of the golden.
        "./$build/bench/$h" --jobs=1 \
            --floors=bench/adversarial_floors.txt \
            > "$golden/$h.stdout"
        ;;
    fault_sweep)
        # A 16-interval scrub period leaves flips pending long enough
        # to exercise corrections, quarantines and repairs; at the
        # default period of 1 the repairs column is all zero.
        "./$build/bench/$h" --jobs=1 --scrub-every=16 --json=- \
            > "$golden/$h.stdout"
        ;;
    *)
        "./$build/bench/$h" --jobs=1 > "$golden/$h.stdout"
        ;;
    esac
done
# The sweeps also write their JSON dumps (each stdout golden
# references the default path, so it can't be disabled with
# --json=-).
rm -f fig8_sweep.json adversarial_sweep.json

# Drift check: every golden stdout the CI workflow diffs against
# must be one this script regenerates — otherwise a renamed or
# added harness silently orphans its checked-in capture.
drifted=0
for ref in $(grep -o 'tests/golden/[A-Za-z0-9_]*\.stdout' \
                 .github/workflows/ci.yml | sort -u); do
    name=${ref#tests/golden/}
    name=${name%.stdout}
    case " $harnesses " in
    *" $name "*) ;;
    *)
        echo "error: ci.yml diffs $ref but this script does not" \
             "regenerate it (add it to \$harnesses)" >&2
        drifted=1
        ;;
    esac
done
[ "$drifted" -eq 0 ] || exit 1

echo >&2
echo "golden diff (empty means outputs were already current):" >&2
git --no-pager diff --stat -- "$golden"
