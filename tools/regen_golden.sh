#!/bin/sh
# Recapture the golden stdout files in tests/golden/.
#
# Run from the repository root after an *intentional* behavior
# change (a model bugfix that legitimately moves the numbers), never
# to paper over an unexplained diff. Rebuilds first so a stale binary
# can't be captured, runs `ctest -L golden` (the golden command lines
# live only in tests/CMakeLists.txt), copies each golden test's
# captured stdout over its file in tests/golden/, and prints a git
# diff summary of what moved.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)

set -eu

build=${1:-build}
golden=tests/golden
outputs=$build/tests/outputs

if [ ! -f "$golden/README.md" ]; then
    echo "error: run from the repository root" >&2
    exit 1
fi
if [ ! -d "$build" ]; then
    echo "error: no build directory '$build' (cmake -B $build)" >&2
    exit 1
fi

cmake --build "$build"
rm -rf "$outputs"
# The golden tests fail on every output that moved; that is expected.
# A golden command that fails to run is not, and nothing is copied.
ctest --test-dir "$build" -L golden -j4 --output-on-failure || true
if grep -q 'command [0-9]* exited' \
        "$build/Testing/Temporary/LastTest.log"; then
    echo "error: a command failed (see above); no golden copied" >&2
    exit 1
fi
for out in "$outputs"/golden_*/1.stdout; do
    name=${out%/1.stdout}
    name=${name##*/golden_}
    cp "$out" "$golden/$name.stdout"
done

echo >&2
echo "golden diff (empty means outputs were already current):" >&2
git status --short -- "$golden"
git --no-pager diff --stat -- "$golden"
