#!/bin/sh
# Documentation-consistency guard:
#
#   1. The flag tables in README.md (between the "begin/end par
#      flags", "begin/end check flags" and "begin/end datalogd flags"
#      markers) must list exactly the flags the CLIs accept.
#   2. The bench-section table in README.md (between the "begin/end
#      bench sections" markers) must list exactly the section ids
#      `bench/main.exe --help` reports.
#   3. Every BENCH_*.json baseline file that README, PERFORMANCE,
#      DESIGN, TUTORIAL or EXPERIMENTS names must be committed.
#
# A drift in any direction fails `dune runtest` (alias @docs) with a
# diff.
#
# Usage: docs_check.sh DATALOGP DATALOGD BENCH README ROOT
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
root=$5

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

# Every baseline file a document names must be committed, so a
# retired baseline cannot linger in the docs.
for doc in README PERFORMANCE DESIGN TUTORIAL EXPERIMENTS; do
  for b in $(grep -oE 'BENCH_[A-Z0-9]+\.json' "$root/$doc.md" | sort -u); do
    if ! [ -e "$root/$b" ]; then
      echo "docs_check: $doc.md names $b, which is not committed"
      status=1
    fi
  done
done

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
