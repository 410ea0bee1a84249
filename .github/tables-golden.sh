#!/usr/bin/env bash
# Table gate: builds flexbench, runs every experiment at quick scale,
# drops the wall-clock "[<id> completed in …]" lines and requires the
# sha256 of the rest to equal the one committed in tables-golden.sha256.
# Every table is a function of the seeds alone, so the hash does not
# depend on the machine or on -cores; a change that means to move a table
# updates the file in the same PR and says so in its title.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/flexbench" ./cmd/flexbench
want=$(awk '{print $1}' .github/tables-golden.sha256)
got=$("$bin/flexbench" "$@" | grep -v '^\[.* completed in .*\]$' | sha256sum | awk '{print $1}')
if [ "$got" != "$want" ]; then
	echo "tables: sha256 $got, committed $want"
	exit 1
fi
echo "tables: ok $got"
