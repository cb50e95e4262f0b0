#!/usr/bin/env bash
# Figure stdout digests: run every figure, table and extension bench
# (build/bench/{table1_epi,fig*,ext_*}) at --jobs 4 --no-cache with
# artifacts routed to a temporary VNOISE_OUT_DIR, and take the sha256
# of each binary's stdout (with the temporary directory's name written
# as $VNOISE_OUT_DIR). Benches print campaign summaries and
# progress to stderr, so their stdout is the figure itself and must
# not change unless the model does.
#
#   --record  write the digests to tests/golden/figure_stdout.sha256
#   --check   compare against that file; exit 1 on any difference
#
# The digest lines go to stdout; status goes to stderr. Run from any
# directory after building the default preset (cmake --preset default
# && cmake --build --preset default).
#
# Usage: scripts/figure_digests.sh --record|--check
set -euo pipefail

mode="${1:-}"
case "$mode" in
--record | --check) ;;
*) echo "usage: $0 --record|--check" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."
golden=tests/golden/figure_stdout.sha256

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
digests="$scratch/digests"
: >"$digests"

shopt -s nullglob
benches=(build/bench/table1_epi build/bench/fig* build/bench/ext_*)
if [ "${#benches[@]}" -eq 0 ] || [ ! -x build/bench/table1_epi ]; then
    echo "figure_digests: no bench binaries under build/bench" >&2
    exit 1
fi

for bin in "${benches[@]}"; do
    name="$(basename "$bin")"
    echo "figure_digests: $name" >&2
    if ! VNOISE_OUT_DIR="$scratch/out" "$bin" --jobs 4 --no-cache \
        >"$scratch/stdout" 2>"$scratch/stderr"; then
        echo "figure_digests: $name failed:" >&2
        cat "$scratch/stderr" >&2
        exit 1
    fi
    # Artifact paths printed to stdout name the temporary directory;
    # replace it so the digest does not depend on where it was made.
    sum="$(sed "s|$scratch/out|\$VNOISE_OUT_DIR|g" "$scratch/stdout" |
        sha256sum | cut -d' ' -f1)"
    echo "$sum  $name" | tee -a "$digests"
done

if [ "$mode" = --record ]; then
    cp "$digests" "$golden"
    echo "figure_digests: recorded ${#benches[@]} digests in $golden" >&2
    exit 0
fi

if ! diff -u "$golden" "$digests" >&2; then
    echo "figure_digests: stdout differs from $golden" >&2
    exit 1
fi
echo "figure_digests: all ${#benches[@]} digests match $golden" >&2
