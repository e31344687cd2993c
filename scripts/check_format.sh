#!/usr/bin/env bash
# clang-format check over all C++ sources, as run by the CI format-check
# job, plus a line-length check and docs-consistency gates that need no
# clang-format. Pass --fix to rewrite files in place instead of checking. The
# CLANG_FORMAT environment variable selects the binary (the CI job pins a
# major version with it, e.g. CLANG_FORMAT=clang-format-15).
set -euo pipefail
cd "$(dirname "$0")/.."

clang_format="${CLANG_FORMAT:-clang-format}"

mode=(--dry-run -Werror)
if [[ "${1:-}" == "--fix" ]]; then
  mode=(-i)
fi

# Line length, without clang-format: .clang-format's ColumnLimit of 80,
# counted in characters (comments carry UTF-8), over the directories the
# clang-format step below covers. Skipped by --fix, which rewraps them.
if [[ "${mode[0]}" != -i ]]; then
  status=0
  long_lines=$(LC_ALL=C.UTF-8 grep -rnE --include='*.cc' --include='*.h' \
    --include='*.cpp' '^.{81,}' src tests bench examples) || status=$?
  if [[ $status -eq 0 ]]; then
    printf '%s\n' "$long_lines" >&2
    echo "error: the lines above are over 80 characters" >&2
    exit 1
  elif [[ $status -ne 1 ]]; then
    echo "error: the line-length scan failed" >&2
    exit 1
  fi
fi

if ! command -v "$clang_format" >/dev/null; then
  echo "error: $clang_format not installed" >&2
  exit 1
fi

find src tests bench examples \
  \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -print0 |
  xargs -0 "$clang_format" "${mode[@]}"

# ---------------------------------------------------------------------------
# Docs consistency: README.md's execution-knob table is the canonical list
# of runtime knobs, checked in both directions. Fail if an EngineConfig
# field or a TERIDS_BENCH_* env var exists in the code but is missing from
# the README (a knob was added), or if a table row names something that is
# not an EngineConfig field or a TERIDS_BENCH_* var nothing under bench/
# reads (a knob was deleted), so the table can't silently rot either way.
# ---------------------------------------------------------------------------
docs_ok=1

# Settable EngineConfig field names: lines like "  int batch_size = 1;"
# inside struct EngineConfig of src/core/config.h. A `static constexpr`
# member is a constant, not a knob, so it is skipped.
config_knobs=$(awk '/^struct EngineConfig/,/^};/' src/core/config.h |
  grep -v '^  static constexpr ' |
  grep -oE '^  [A-Za-z_:<>]+( [A-Za-z_:<>]+)* [a-z_]+ *[=;]' |
  grep -oE '[a-z_]+ *[=;]$' | grep -oE '^[a-z_]+')

for knob in $config_knobs; do
  if ! grep -q "\`$knob\`" README.md; then
    echo "error: EngineConfig knob '$knob' is missing from README.md" >&2
    docs_ok=0
  fi
done

# Every TERIDS_BENCH_* environment variable referenced by the bench harness.
bench_vars=$(grep -rhoE 'TERIDS_BENCH_[A-Z_]+' bench | grep -v '_H_$' | sort -u)

for var in $bench_vars; do
  if ! grep -q "$var" README.md; then
    echo "error: bench env var '$var' is missing from README.md" >&2
    docs_ok=0
  fi
done

# Reverse direction, over the table rows ("| `knob` | default | env | ...").
# A var counts as read when bench/ spells it as a string literal (the
# getenv / EnvInt argument), not when a comment merely mentions it.
table_rows=$(grep -E '^\| `[a-z_]+` \|' README.md || true)
read_vars=$(grep -rhoE '"TERIDS_BENCH_[A-Z_]+"' bench | tr -d '"' | sort -u)

for knob in $(printf '%s\n' "$table_rows" | grep -oE '^\| `[a-z_]+`' |
  grep -oE '[a-z_]+'); do
  if ! printf '%s\n' $config_knobs | grep -qx "$knob"; then
    echo "error: README.md knob row '$knob' is not an EngineConfig field" >&2
    docs_ok=0
  fi
done

for var in $(printf '%s\n' "$table_rows" | grep -oE 'TERIDS_BENCH_[A-Z_]+' |
  sort -u); do
  if ! printf '%s\n' $read_vars | grep -qx "$var"; then
    echo "error: README.md knob row names '$var', which nothing under" \
      "bench/ reads" >&2
    docs_ok=0
  fi
done

if [[ $docs_ok -ne 1 ]]; then
  echo "error: README.md execution-knob table is out of date (see above)" >&2
  exit 1
fi

# Bench names, checked in both directions: every backticked `bench_<name>`
# in README.md or EXPERIMENTS.md must be an existing bench/<name>.cc (a
# bench was deleted), and every bench binary source must be named in
# README.md (a bench was added).
for name in $(grep -ohE '`bench_[a-z0-9_]+`' README.md EXPERIMENTS.md |
  tr -d '`' | sort -u); do
  if [[ ! -f "bench/$name.cc" ]]; then
    echo "error: docs name '$name', but bench/$name.cc does not exist" >&2
    docs_ok=0
  fi
done

for src in bench/bench_*.cc; do
  name=$(basename "$src" .cc)
  if [[ "$name" != "bench_common" ]] && ! grep -q "\`$name\`" README.md; then
    echo "error: bench '$name' is missing from README.md" >&2
    docs_ok=0
  fi
done

if [[ $docs_ok -ne 1 ]]; then
  echo "error: README.md / EXPERIMENTS.md bench names are out of date" \
    "(see above)" >&2
  exit 1
fi

# Source paths: every backticked `src/...` path in README.md, DESIGN.md or
# EXPERIMENTS.md must exist (a file was deleted or renamed). A brace form
# such as `src/text/token_arena.{h,cc}` names one path per alternative.
for path in $(grep -ohE '`src/[^` ]*`' README.md DESIGN.md EXPERIMENTS.md |
  tr -d '`' | sort -u); do
  expanded=("$path")
  if [[ "$path" =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
    expanded=()
    IFS=, read -ra alternatives <<<"${BASH_REMATCH[2]}"
    for alt in "${alternatives[@]}"; do
      expanded+=("${BASH_REMATCH[1]}$alt${BASH_REMATCH[3]}")
    done
  fi
  for file in "${expanded[@]}"; do
    if [[ ! -e "$file" ]]; then
      echo "error: docs name '$path', but $file does not exist" >&2
      docs_ok=0
    fi
  done
done

if [[ $docs_ok -ne 1 ]]; then
  echo "error: README.md / DESIGN.md / EXPERIMENTS.md source paths are out" \
    "of date (see above)" >&2
  exit 1
fi

# Prose about deleted knobs: every backticked `EngineConfig::<name>` in
# README.md, DESIGN.md or EXPERIMENTS.md must name a live EngineConfig field,
# and every TERIDS_BENCH_* variable named there must be one that bench/ reads
# (as a string literal, like the table check above).
docs=(README.md DESIGN.md EXPERIMENTS.md)
for field in $(grep -ohE '`EngineConfig::[A-Za-z_]+' "${docs[@]}" |
  sed 's/^`EngineConfig:://' | sort -u); do
  if ! printf '%s\n' $config_knobs | grep -qx "$field"; then
    echo "error: docs name 'EngineConfig::$field', which is not an" \
      "EngineConfig field" >&2
    docs_ok=0
  fi
done

for var in $(grep -ohE 'TERIDS_BENCH_[A-Z_]+' "${docs[@]}" | sort -u); do
  if ! printf '%s\n' $read_vars | grep -qx "$var"; then
    echo "error: docs name '$var', which nothing under bench/ reads" >&2
    docs_ok=0
  fi
done

if [[ $docs_ok -ne 1 ]]; then
  echo "error: README.md / DESIGN.md / EXPERIMENTS.md name deleted knobs" \
    "(see above)" >&2
  exit 1
fi
