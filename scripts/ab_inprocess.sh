#!/usr/bin/env bash
# In-process A/B of the working tree against a baseline revision.
#
#   scripts/ab_inprocess.sh <rev> [paper-mix|compute-sync] [rounds] [seed]
#
# Exports <rev> into a temporary directory, bumps that copy's workspace
# version to 0.2.0 so Cargo links both versions' crates into one driver
# (source: scripts/ab_inprocess/main.rs, not a workspace member), and
# runs the workload's cells alternately on the two versions. Prints the
# head / base host-time ratio of every round; exits nonzero if any cell's
# golden snapshot differs between the versions. Defaults: paper-mix,
# 3 rounds, seed 7. Builds into $CARGO_TARGET_DIR when set, else into the
# temporary directory (removed on exit).
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

REV="${1:?usage: scripts/ab_inprocess.sh <rev> [paper-mix|compute-sync] [rounds] [seed]}"
WORKLOAD="${2:-paper-mix}"
ROUNDS="${3:-3}"
SEED="${4:-7}"
case "$WORKLOAD" in
    paper-mix | compute-sync) ;;
    *)
        echo "unknown workload '$WORKLOAD' (paper-mix or compute-sync)" >&2
        exit 2
        ;;
esac

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The baseline: a plain export of <rev>, renumbered so its crates do not
# collide with the working tree's in one dependency graph.
git archive --format=tar --prefix=base/ "$REV" | tar -x -C "$TMP"
sed -i '/^\[workspace\.package\]/,/^\[/ s/^version = ".*"/version = "0.2.0"/' "$TMP/base/Cargo.toml"
grep -q '^version = "0.2.0"' "$TMP/base/Cargo.toml" \
    || { echo "could not renumber the baseline's workspace version" >&2; exit 1; }

mkdir -p "$TMP/driver/src"
cp scripts/ab_inprocess/main.rs "$TMP/driver/src/main.rs"
deps=""
for crate in harness system workloads; do
    deps+="head_$crate = { package = \"spcp-$crate\", path = \"$ROOT/crates/$crate\" }"$'\n'
    deps+="base_$crate = { package = \"spcp-$crate\", path = \"$TMP/base/crates/$crate\" }"$'\n'
done
cat > "$TMP/driver/Cargo.toml" <<TOML
[package]
name = "spcp-ab-inprocess"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
$deps
TOML

echo "A/B: working tree vs $REV ($(git rev-parse --short "$REV^{commit}"))"
cargo run --release --offline --quiet \
    --manifest-path "$TMP/driver/Cargo.toml" \
    --target-dir "${CARGO_TARGET_DIR:-$TMP/target}" \
    -- "$WORKLOAD" "$ROUNDS" "$SEED"
