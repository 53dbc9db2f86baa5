#!/bin/sh
# bench/main.exe must refuse each command line below before running
# anything: exit 2 with the usage text on stderr. An uncaught OCaml
# exception also exits 2, so the usage line is required too.
# Usage: fails_closed.sh PATH/TO/main.exe
bench=$1
status=0
# a main.exe that stops refusing would run whole targets: cap its memory
ulimit -v 4000000
refused() {
  err=$("$bench" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 2 ] || ! printf '%s\n' "$err" | grep -q '^usage:'; then
    echo "not refused (exit $code): main.exe $*"
    status=1
  fi
}
# a flag no running target reads
refused fig7 --golden bench/golden_latency.json
refused table2 --write-golden x.json
refused hw --baseline bench/analysis_baseline.json
# --out, --golden and --write-golden reach only targets named
refused --golden bench/golden_cycles.json
refused --out x.json
refused --write-golden x.json
# integer flags must be integers >= 1
refused --n abc
refused fig7 --repeats 0
refused trace --sample 0
refused trace --sample -3
# a value flag without its value, an unknown target
refused hw --golden
refused keyz --golden bench/golden_keys.json
exit $status
