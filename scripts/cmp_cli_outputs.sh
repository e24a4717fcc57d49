#!/bin/sh
# Byte-compare the CLI output of two checkouts of this repository.
#
#   sh scripts/cmp_cli_outputs.sh OLD_CHECKOUT NEW_CHECKOUT WORKDIR
#
# Runs every subcommand of each checkout (its src/ on PYTHONPATH) into
# WORKDIR/old and WORKDIR/new, inputs included, then cmp's every file.
# Prints one line per difference and a count; exits 1 if any file differs.
set -e
[ $# -eq 3 ] || { echo "usage: $0 OLD_CHECKOUT NEW_CHECKOUT WORKDIR" >&2; exit 2; }
old=$(cd "$1" && pwd); new=$(cd "$2" && pwd); mkdir -p "$3"; work=$(cd "$3" && pwd)

run_all() (
  repo=$1; out=$2; rm -rf "$out"; mkdir -p "$out"; cd "$out"
  hk() { PYTHONPATH="$repo/src" python3 -m hurstkit.cli "$@"; }
  hk generate --model fgn --h 0.8 --n 8192 --seed 3 --out fgn.txt
  hk generate --model farima --d 0.3 --phi 0.5 --theta 0.2 --sigma 2 --n 4096 --seed 4 --out farima.txt
  hk generate --model ar1 --phi 0.7 --sigma 0.5 --n 4096 --seed 5 --out ar1.txt
  hk generate --model iid --n 4096 --seed 6 --out iid.txt
  hk generate --model farima --phi 0.5 --phi 0.2 --theta 0.1 --n 4096 --seed 10 --out farima_arma.txt
  # every parameter left at its default
  for m in fgn farima ar1; do hk generate --model $m --n 4096 --seed 9 --out default_$m.txt; done
  # short enough that the R/S and aggregated-variance fits fall back to the full range
  hk generate --model iid --n 1100 --seed 8 --out iid_short.txt
  for k in ar1 sine trend; do hk corrupt --kind $k --in fgn.txt --seed 2 --out corrupt_$k.txt; done
  hk corrupt --kind sine --cycles 3 --in fgn.txt --out corrupt_sine3.txt
  hk corrupt --kind ar1 --phi 0.5 --seed 4 --in fgn.txt --out corrupt_ar1_phi.txt
  python3 -c "print('\n'.join(str(1.0 + i % 7) for i in range(4096)))" > pos.txt
  for k in log linear poly; do hk filter --kind $k --in pos.txt --out filter_$k.txt; done
  hk filter --kind poly --degree 4 --in fgn.txt --out filter_poly4.txt
  hk estimate --method all --in fgn.txt --out est_all.csv
  hk estimate --method all --in iid_short.txt --out est_short_all.csv
  hk estimate --method lwhittle --bandwidth 200 --in fgn.txt --out est_lw.csv
  hk estimate --method aggvar --in fgn.txt --out est_aggvar.csv --dump-fit fit.txt
  hk acf --in fgn.txt --max-lag 100 --out acf.txt
  python3 -c "
import numpy as np
rng = np.random.default_rng(1)
t = np.cumsum(np.floor(273 * (1 + rng.pareto(1.5, 20000)))) * 2.0**-20
s = rng.choice([40, 576, 1500], size=20000)
print(''.join(f'{a!r} {b}\n' for a, b in zip(t.tolist(), s.tolist())), end='')
" > trace.txt
  hk ingest --trace trace.txt --mode bins --bin-width 0.0078125 --out bins.txt
  hk ingest --trace trace.txt --mode interarrival --skip 5 --take 10000 --out gaps.txt
  hk ingest --trace trace.txt --mode bins --bin-width 0.0078125 --skip 3 --take 500 --out bins_window.txt
  printf 'source = fgn\nn = 8192\nh = 0.7\nruns = 3\nseed = 1000\ncorruption = none\ncorruption = ar1\ncorruption = sine\ncorruption = trend\nestimator = all\nworkers = 1\nformat = csv\noutput = fgn_matrix.csv\n' > fgn.cfg
  hk matrix --config fgn.cfg
  hk matrix --config fgn.cfg --format aligned --out fgn_matrix.aligned
  printf 'source = file\npath = bins.txt\nfilter = none\nfilter = log\nfilter = linear\nfilter = poly\nestimator = all\nworkers = 1\nformat = csv\noutput = trace_matrix.csv\n' > trace.cfg
  hk matrix --config trace.cfg
  hk matrix --config trace.cfg --format aligned --out trace_matrix.aligned
  hk matrix --source farima --n 4096 --d 0.2 --phi 0.3 --runs 2 --seed 7 --estimator rs --estimator pgram --format aligned > farima_matrix.aligned
  hk matrix --source ar1 --n 4096 --phi 0.5 --sigma 2 --corruption none --corruption trend --workers 2 > ar1_matrix.csv
  hk matrix --source trace --path trace.txt --mode bins --bin-width 0.0078125 --skip 10 --take 1500 --filter none --filter poly --estimator wavelet > tracesrc_matrix.csv
)

run_all "$old" "$work/old"
run_all "$new" "$work/new"
differ=0; files=0
for f in "$work"/old/*; do
  files=$((files + 1))
  cmp "$f" "$work/new/${f##*/}" || differ=$((differ + 1))
done
[ "$(ls "$work/old" | wc -l)" -eq "$(ls "$work/new" | wc -l)" ] || { echo "file sets differ"; differ=$((differ + 1)); }
echo "$files files compared, $differ differ"
[ "$differ" -eq 0 ]
