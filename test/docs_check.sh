#!/bin/sh
# Documentation-consistency guard:
#
#   1. The flag tables in README.md (between the "begin/end par
#      flags", "begin/end check flags" and "begin/end datalogd flags"
#      markers) must list exactly the flags the CLIs accept.
#   2. The bench-section table in README.md (between the "begin/end
#      bench sections" markers) must list exactly the section ids
#      `bench/main.exe --help` reports.
#   3. Every committed BENCH_*.json baseline must be mentioned by name
#      in PERFORMANCE.md (the canonical perf-trajectory document), and
#      every baseline README.md names must be committed.
#
# A drift in any direction fails `dune runtest` (alias @docs) with a
# diff.
#
# Usage: docs_check.sh DATALOGP DATALOGD BENCH README PERFORMANCE ROOT
#
# The flag name is the first `--token` of a table row's first cell; on
# the --help side it is every long option named on an option line
# (--help and --version excluded as cmdliner boilerplate).  A bench
# section id is the backticked first cell of a table row; on the
# --help side, the first word of each line of the sections block.
set -eu

datalogp=$1
datalogd=$2
bench=$3
readme=$4
performance=$5
root=$6

readme_flags () {
  sed -n "/begin $1 flags/,/end $1 flags/p" "$readme" \
    | awk -F'|' 'NF > 2 { print $2 }' \
    | grep -oE -- '--[a-z][a-z-]*' | sort
}

help_flags () {
  "$@" --help=plain \
    | sed -n '/^OPTIONS/,/^EXIT STATUS/p' \
    | grep -E '^       -' \
    | grep -oE -- '--[a-z][a-z-]*' \
    | grep -vE '^--(help|version)$' | sort
}

check_table () {
  table=$1
  shift
  readme_flags "$table" > "readme-$table"
  help_flags "$@" > "help-$table"
  if ! diff -u "readme-$table" "help-$table" > "diff-$table"; then
    echo "README $table flag table is out of sync with '$* --help':"
    cat "diff-$table"
    echo "(lines with '-' are README rows for flags the CLI lacks;"
    echo " lines with '+' are CLI flags missing a README row)"
    status=1
  fi
}

status=0
check_table par "$datalogp" par
check_table check "$datalogp" check
check_table datalogd "$datalogd"

# The README's bench-section table must match the harness's own
# section registry (`bench --help` prints one line per section).
sed -n '/begin bench sections/,/end bench sections/p' "$readme" \
  | awk -F'|' 'NF > 2 { print $2 }' \
  | grep -oE '`[a-z0-9]+`' | tr -d '`' | sort > readme-bench
"$bench" --help \
  | sed -n '/^sections:/,/^flags:/p' \
  | awk '/^  [a-z0-9]/ { print $1 }' | sort > help-bench
if ! diff -u readme-bench help-bench > diff-bench; then
  echo "README bench-section table is out of sync with 'bench --help':"
  cat diff-bench
  echo "(lines with '-' are README rows for sections the bench lacks;"
  echo " lines with '+' are bench sections missing a README row)"
  status=1
fi

# Every committed baseline file must be documented in PERFORMANCE.md,
# so a bench section cannot start writing a new BENCH_*.json without
# the perf-trajectory document gaining a row for it.
found_baseline=0
for f in "$root"/BENCH_*.json; do
  [ -e "$f" ] || continue
  found_baseline=1
  b=$(basename "$f")
  if ! grep -q "$b" "$performance"; then
    echo "docs_check: baseline $b is not documented in PERFORMANCE.md"
    status=1
  fi
done
# ...and every baseline the README names must still be committed, so
# a retired baseline cannot linger in the user-facing docs.
for b in $(grep -oE 'BENCH_[A-Z0-9]+\.json' "$readme" | sort -u); do
  if ! [ -e "$root/$b" ]; then
    echo "docs_check: README.md names $b, which is not committed"
    status=1
  fi
done
if [ "$found_baseline" = 0 ]; then
  echo "docs_check: no BENCH_*.json baselines found under '$root';"
  echo "is the project root argument wrong?"
  status=1
fi

# A sanity check that the extraction is not vacuously empty: an empty
# side would make the diff pass trivially if the markers went missing.
for f in readme-par help-par readme-check help-check \
         readme-datalogd help-datalogd readme-bench help-bench; do
  if ! [ -s "$f" ]; then
    echo "docs_check: extracted flag list '$f' is empty;"
    echo "are the README table markers or --help format intact?"
    status=1
  fi
done

# Every diagnostic code the checker can emit (`check --codes`) must be
# mentioned in the README, so the planner codes (E201-E203, W110,
# I005, I110-I112) cannot be added to the registry without a row in
# the Diagnostics tables.
"$datalogp" check --codes | awk '{ print $1 }' | sort -u > codes-cli
if ! [ -s codes-cli ]; then
  echo "docs_check: 'check --codes' produced no codes"
  status=1
fi
while read -r code; do
  if ! grep -q "$code" "$readme"; then
    echo "docs_check: diagnostic $code is not documented in the README"
    status=1
  fi
done < codes-cli

exit $status
