#!/usr/bin/env bash
# The mutation corpus: every bug fix that a test was written to catch
# stays caught. Each scripts/mutants/<name>.patch reverses one fix (or
# injects the defect it cured) and names, on a `test:` line above the
# diff, the one test that must kill it, as `<package> <target> <name>`
# (the form of CI step 11). For each patch this script copies the tree
# (tracked and untracked files, without build output) into a temporary
# directory, applies the patch there, builds and runs only that test,
# and fails if the patch no longer applies, the mutant does not build,
# the test does not run, or the test passes (the mutant survived).
#
#   scripts/mutants.sh            # every patch
#   scripts/mutants.sh size_gate  # the named patches only
#
# The copies share one target directory, so after the first mutant
# each build is incremental. Not part of scripts/ci.sh: it rebuilds
# eq_core's tests once per mutant; run it as its own gate after
# touching code a patch covers, and refresh a patch that stops applying.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR="$work/target"

if [ $# -gt 0 ]; then
    patches=()
    for name in "$@"; do patches+=("scripts/mutants/$name.patch"); done
else
    patches=(scripts/mutants/*.patch)
fi

failed=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    read -r package target test < <(sed -n 's/^test: //p' "$patch") || true
    if [ -z "${test:-}" ]; then
        echo "FATAL: $name names no test" >&2
        failed=1
        continue
    fi
    tree="$work/tree"
    rm -rf "$tree"
    mkdir "$tree"
    git ls-files -co --exclude-standard -z | tar cf - --null -T - | tar xf - -C "$tree"
    if ! (cd "$tree" && git apply "$root/$patch"); then
        echo "FATAL: $name no longer applies" >&2
        failed=1
        continue
    fi
    if ! (cd "$tree" && cargo test -q --offline -p "$package" "$target" --no-run 2>"$work/build.log"); then
        cat "$work/build.log"
        echo "FATAL: $name does not build" >&2
        failed=1
        continue
    fi
    out=$(cd "$tree" && timeout 300 cargo test -q --offline -p "$package" "$target" -- --exact "$test" 2>&1) || true
    if grep -q "test result: FAILED. 0 passed; 1 failed" <<<"$out"; then
        echo "killed:   $name by $test"
    elif grep -q "test result: ok. 1 passed" <<<"$out"; then
        echo "FATAL: $name survived $test" >&2
        failed=1
    else
        echo "$out"
        echo "FATAL: $name: $test did not run to a verdict (timeout or missing test)" >&2
        failed=1
    fi
done
exit "$failed"
