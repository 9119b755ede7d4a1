#!/usr/bin/env bash
# Compares the loaded sections of the `perfbench` release binary built at
# two revisions, which shows whether a change can move the benchmark's
# calibrated metrics (ROADMAP item 1(g)).
#
#   scripts/perfbench-layout.sh <base> [<head>]
#
# <head> defaults to HEAD; pass "$(git stash create)" to compare the
# uncommitted changes to tracked files. Both revisions are checked out
# into one fixed source path, /tmp/perfbench-layout/src (through a
# private index, leaving the caller's checkout and index alone), and
# built into one target directory: $CARGO_TARGET_DIR if set, else a
# temporary one. Only the files that differ are rewritten for the second
# build, so it is incremental. The path is fixed because the binary
# depends on it twice over: it embeds its source paths, which both builds
# remap to `.` (`--remap-path-prefix`, appended to $RUSTFLAGS), and cargo
# hashes the absolute path of every crate perfbench links from outside
# its own workspace into that crate's `-C metadata`, which names its
# symbols and so orders code in every loaded section; no flag remaps
# that. So a revision's section hashes are the same in every run and can
# be compared across runs. A lock makes concurrent runs take turns.
#
# Prints the sha256 prefix of each identical section, a `::warning::`
# line for each section that differs and for a moved `calib::run`, and
# that symbol's address when it stayed put. Exits 0 once both revisions
# were compared, or with a warning when one did not build; 2 on bad usage.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <base> [<head>]" >&2
  exit 2
fi
repo=$(git rev-parse --show-toplevel) || exit 2
base=$(git -C "$repo" rev-parse --verify "$1^{commit}") || exit 2
head=$(git -C "$repo" rev-parse --verify "${2:-HEAD}^{commit}") || exit 2

mkdir -p /tmp/perfbench-layout || exit 2
exec 9>/tmp/perfbench-layout/lock
flock 9 || exit 2
src=/tmp/perfbench-layout/src
rm -rf "$src"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp" "$src"' EXIT
out="$tmp/out"
mkdir -p "$src" "$out"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$tmp/target}"
export GIT_INDEX_FILE="$tmp/index"
export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }--remap-path-prefix=$src=."

# build <name> <read-tree args...>: moves the source path to a revision
# and copies the driver it builds to $out/<name>.
build() {
  local name=$1
  shift
  git -C "$repo" --work-tree="$src" read-tree -u "$@" &&
    (cd "$src" && cargo build --release --offline -q --manifest-path perfbench/Cargo.toml) &&
    cp "$CARGO_TARGET_DIR/release/perfbench" "$out/$name"
}
if ! build base --reset "$base" || ! build change -m "$base" "$head"; then
  echo "::warning::perfbench did not build at both commits; layout not compared"
  exit 0
fi

cd "$out" || exit 0
for s in .text .rodata .data .data.rel.ro .eh_frame .gcc_except_table; do
  objcopy -O binary --only-section="$s" base base.sec
  objcopy -O binary --only-section="$s" change change.sec
  if cmp -s base.sec change.sec; then
    echo "$s identical ($(sha256sum < base.sec | cut -c1-16))"
  else
    echo "::warning::perfbench section $s differs from the base; calibrated work_s and setup_s may move (ROADMAP 1(g))"
  fi
done
calib() { nm "$1" | grep 'perfbench5calib3run' | cut -d' ' -f1; }
if [ "$(calib base)" != "$(calib change)" ]; then
  echo "::warning::perfbench calib::run moved from 0x$(calib base) to 0x$(calib change)"
else
  echo "calib::run at 0x$(calib base) in both"
fi
exit 0
