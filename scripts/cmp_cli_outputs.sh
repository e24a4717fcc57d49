#!/bin/sh
# Byte-compare the CLI output of two checkouts of this repository.
#
#   sh scripts/cmp_cli_outputs.sh OLD_CHECKOUT NEW_CHECKOUT WORKDIR
#
# Runs every subcommand of each checkout (its src/ on PYTHONPATH) into
# WORKDIR/old and WORKDIR/new, inputs included, then cmp's every file.
# Prints one line per difference and a count; exits 1 if any file differs.
# scripts/max_rel_diff.py OLD_FILE NEW_FILE sizes a numeric difference.
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
  hk generate --model ar1 --n 1 --seed 3 --out ar1_one.txt
  hk generate --model iid --n 1024 --seed 11 --out iid_1024.txt
  hk corrupt --kind ar1 --in fgn.txt --seed 2 --out corrupt_ar1.txt
  for k in sine trend; do hk corrupt --kind $k --in fgn.txt --out corrupt_$k.txt; done
  hk corrupt --kind sine --cycles 3 --in fgn.txt --out corrupt_sine3.txt
  hk corrupt --kind ar1 --phi 0.5 --seed 4 --in fgn.txt --out corrupt_ar1_phi.txt
  python3 -c "print('\n'.join(str(1.0 + i % 7) for i in range(4096)))" > pos.txt
  for k in log linear poly; do hk filter --kind $k --in pos.txt --out filter_$k.txt; done
  hk filter --kind poly --degree 4 --in fgn.txt --out filter_poly4.txt
  hk estimate --method all --in fgn.txt --out est_all.csv
  hk estimate --method all --in iid_short.txt --out est_short_all.csv
  hk estimate --method lwhittle --bandwidth 200 --in fgn.txt --out est_lw.csv
  hk estimate --method aggvar --in fgn.txt --out est_aggvar.csv --dump-fit fit.txt
  hk estimate --method wavelet --in iid_1024.txt --out est_wavelet_1024.csv
  # R/S steps all walks at once where a size has >= 1024 blocks (up to 128 points on 2^17);
  # a size with fewer takes its walks as running sums over 8 fixed groups of its blocks
  hk generate --model fgn --h 0.7 --n 131072 --seed 12 --out fgn_2e17.txt
  for f in fgn fgn_2e17; do
    for m in rs wavelet; do hk estimate --method $m --in $f.txt --out est_${m}_$f.csv --dump-fit fit_${m}_$f.txt; done
  done
  # AR(1) recursion, ACF FFT length and bounded Brent minimiser at scale
  hk generate --model ar1 --phi 0.99 --n 131072 --seed 13 --out ar1_099_2e17.txt
  hk generate --model ar1 --phi -0.9 --n 131072 --seed 14 --out ar1_m09_2e17.txt
  # the recursion runs over 4096-innovation chunks: these leave a last chunk of one
  for n in 4098 8194; do hk generate --model ar1 --phi 0.9 --n $n --seed 19 --out ar1_$n.txt; done
  # the block path: phi = 0 checks one step per block; 1e6 points take four spans;
  # at 2^17 points it runs up to |phi| = 0.99512 and leaves 0.996 to the loop alone
  hk generate --model ar1 --phi 0 --n 131072 --seed 22 --out ar1_0_2e17.txt
  hk generate --model ar1 --phi 0.9 --n 1000000 --seed 23 --out ar1_09_1e6.txt
  for phi in 0.995 0.996; do hk generate --model ar1 --phi $phi --n 131072 --seed 24 --out ar1_${phi}_2e17.txt; done
  # R/S splits each size's blocks over the CPUs when called on the main thread (estimate,
  # matrix with one worker) and runs inline in matrix cells on two workers
  hk estimate --method rs --in ar1_09_1e6.txt --out est_rs_ar1_09_1e6.csv --dump-fit fit_rs_ar1_09_1e6.txt
  # 15 of the 20 grouped sizes of 98183 points have a block count that 8 does not divide: groups of unequal length
  hk generate --model fgn --h 0.8 --n 98183 --seed 29 --out fgn_98183.txt
  hk estimate --method rs --in fgn_98183.txt --out est_rs_98183.csv --dump-fit fit_rs_98183.txt
  hk matrix --source fgn --n 131072 --runs 2 --seed 26 --corruption none --corruption ar1 --estimator rs --workers 2 > fgn_2e17_rs_w2_matrix.csv
  # a block of each of these paths misses its check, so the loop redoes its span;
  # corrupt --seed 37 draws the first of them as its AR(1) noise
  for ps in 0.9:37 -0.9:129 0.5:53; do
    hk generate --model ar1 --phi ${ps%:*} --n 131072 --seed ${ps#*:} --out ar1_miss_${ps%:*}_2e17.txt
  done
  hk corrupt --kind ar1 --in fgn_2e17.txt --seed 37 --out corrupt_ar1_37_2e17.txt
  hk corrupt --kind ar1 --in fgn_2e17.txt --seed 15 --out corrupt_ar1_2e17.txt
  hk corrupt --kind ar1 --phi 0 --in fgn_2e17.txt --seed 25 --out corrupt_ar1_0_2e17.txt
  hk estimate --method lwhittle --in fgn_2e17.txt --out est_lw_fgn_2e17.csv
  hk estimate --method lwhittle --bandwidth 300 --in ar1.txt --out est_lw_ar1.csv
  # the minimiser at each bound, where golden steps end in a tol1-sized step: 1.49 on a trend,
  # 0.0100005 on a negative AR(1)
  hk estimate --method lwhittle --bandwidth 8 --in corrupt_trend.txt --out est_lw_hi.csv
  hk generate --model ar1 --phi -0.99 --n 8192 --seed 5 --out ar1_m099.txt
  hk estimate --method lwhittle --in ar1_m099.txt --out est_lw_lo.csv
  # full grids sum blocks of 2-15 points too: aggvar's sizes 2-13 on 2^17 points
  hk estimate --method aggvar --in fgn_2e17.txt --out est_aggvar_fgn_2e17.csv --dump-fit fit_aggvar_fgn_2e17.txt
  hk corrupt --kind ar1 --phi -0.99 --in fgn_2e17.txt --seed 17 --out corrupt_ar1_m099_2e17.txt
  # 2n = 7000 = 2^3 5^3 7 is its own FFT length; a 5-smooth rule would take 7200
  hk generate --model iid --n 3500 --seed 16 --out iid_3500.txt
  hk acf --in iid_3500.txt --max-lag 500 --out acf_3500.txt
  for m in rs aggvar; do hk estimate --method $m --in iid_3500.txt --out est_${m}_3500.csv --dump-fit fit_${m}_3500.txt; done
  hk acf --in fgn.txt --max-lag 100 --out acf.txt
  python3 -c "
import numpy as np
rng = np.random.default_rng(1)
t = np.cumsum(np.floor(273 * (1 + rng.pareto(1.5, 20000)))) * 2.0**-20
s = rng.choice([40, 576, 1500], size=20000)
print(''.join(f'{a!r} {b}\n' for a, b in zip(t.tolist(), s.tolist())), end='')
" > trace.txt
  hk ingest --trace trace.txt --mode bins --bin-width 0.0078125 --out bins.txt
  hk estimate --method all --in bins.txt --out est_all_bins.csv
  # each trace reader end to end: trace.txt's 19- and 20-digit lines go to NumPy's
  # C reader, comment lines to the line scanner, and Unix-epoch timestamps (10-digit
  # integer parts, up to 17 digits in all) to the plain-decimal kernel near its limit.
  # CRLF line ends are read as LF before any reader runs, so each CRLF trace takes
  # its LF twin's reader, and a tab between the columns sends the epoch lines to NumPy's.
  sed 's/$/\r/' trace.txt > trace_crlf.txt
  { echo '# packets'; sed -n '1,10000p' trace.txt; echo '#'; sed -n '10001,$p' trace.txt; } > trace_comments.txt
  python3 -c "
import numpy as np
rng = np.random.default_rng(2)
t = 1.16e9 + np.cumsum(np.floor(273 * (1 + rng.pareto(1.5, 20000)))) * 2.0**-20
s = rng.choice([40, 576, 1500], size=20000)
print(''.join(f'{a!r} {b}\n' for a, b in zip(t.tolist(), s.tolist())), end='')
" > trace_epoch.txt
  sed 's/$/\r/' trace_epoch.txt > trace_epoch_crlf.txt
  sed 's/ /\t/' trace_epoch.txt > trace_epoch_tab.txt
  for f in trace_crlf trace_comments trace_epoch trace_epoch_crlf trace_epoch_tab; do
    hk ingest --trace $f.txt --mode bins --bin-width 0.0078125 --out bins_$f.txt
  done
  # over 1 MiB, the plain-decimal kernel reads its windows on one thread per CPU:
  # a 120k-packet trace (3 windows; from 1 s on, so every line is in its format)
  # and a 2.2-MB whole-number series
  python3 -c "
import numpy as np
rng = np.random.default_rng(4)
t = (2**20 + np.cumsum(np.floor(273 * (1 + rng.pareto(1.5, 120000))))) * 2.0**-20
s = rng.choice([40, 576, 1500], size=120000)
print(''.join(f'{a!r} {b}\n' for a, b in zip(t.tolist(), s.tolist())), end='')
" > trace_120k.txt
  hk ingest --trace trace_120k.txt --mode bins --bin-width 0.0078125 --out bins_120k.txt
  hk ingest --trace trace_120k.txt --mode interarrival --out gaps_120k.txt
  python3 -c "
import numpy as np
print(''.join(f'{v}.0\n' for v in np.random.default_rng(5).integers(0, 10**6, 250000).tolist()), end='')
" > whole_250k.txt
  hk estimate --method all --in whole_250k.txt --out est_all_whole_250k.csv
  # bin indices are floor(d / w), re-taken as d // w where d / w rounds onto a
  # whole number: non-power-of-two widths, and timestamps on decimal bin edges
  for w in 0.01 0.003; do hk ingest --trace trace.txt --mode bins --bin-width $w --out bins_w$w.txt; done
  hk estimate --method all --in bins_w0.01.txt --out est_all_bins_w0.01.csv
  python3 -c "
import numpy as np
rng = np.random.default_rng(3)
k = np.sort(rng.integers(0, 40000, 20000))
t = np.where(rng.random(20000) < 0.8, k / 100, (k + 0.5) / 100)
s = rng.choice([40, 576, 1500], size=20000)
print(''.join(f'{a!r} {b}\n' for a, b in zip(np.maximum.accumulate(t).tolist(), s.tolist())), end='')
" > trace_edges.txt
  for w in 0.01 0.001 0.003; do hk ingest --trace trace_edges.txt --mode bins --bin-width $w --out bins_edges_w$w.txt; done
  # both detrends on about 1e5 bins, and degree 1 beside the linear detrend
  hk ingest --trace trace.txt --mode bins --bin-width 0.0001220703125 --out bins_1e5.txt
  for k in linear poly; do hk filter --kind $k --in bins_1e5.txt --out filter_${k}_bins_1e5.txt; done
  hk filter --kind poly --degree 1 --in bins_1e5.txt --out filter_poly1_bins_1e5.txt
  # comment lines send read_series to its line scanner
  { echo '# comment'; sed -n '1,2000p' fgn.txt; echo '#'; sed -n '2001,$p' fgn.txt; } > fgn_comments.txt
  hk estimate --method all --in fgn_comments.txt --out est_all_comments.csv
  hk ingest --trace trace.txt --mode interarrival --skip 5 --take 10000 --out gaps.txt
  hk ingest --trace trace.txt --mode bins --bin-width 0.0078125 --skip 3 --take 500 --out bins_window.txt
  printf '2.5 40\n2.5 1500\n2.5 576\n' > same_time.txt
  hk ingest --trace same_time.txt --mode bins --bin-width 0.001 --out bins_same_time.txt
  printf 'source = fgn\nn = 8192\nh = 0.7\nruns = 3\nseed = 1000\ncorruption = none\ncorruption = ar1\ncorruption = sine\ncorruption = trend\nestimator = all\nworkers = 1\nformat = csv\noutput = fgn_matrix.csv\n' > fgn.cfg
  hk matrix --config fgn.cfg
  hk matrix --config fgn.cfg --format aligned --out fgn_matrix.aligned
  printf 'source = file\npath = bins.txt\nfilter = none\nfilter = log\nfilter = linear\nfilter = poly\nestimator = all\nworkers = 1\nformat = csv\noutput = trace_matrix.csv\n' > trace.cfg
  hk matrix --config trace.cfg
  hk matrix --config trace.cfg --format aligned --out trace_matrix.aligned
  hk matrix --source farima --n 4096 --d 0.2 --phi 0.3 --runs 2 --seed 7 --estimator rs --estimator pgram --format aligned > farima_matrix.aligned
  hk matrix --source ar1 --n 4096 --phi 0.5 --sigma 2 --corruption none --corruption trend --workers 2 > ar1_matrix.csv
  # matrix cells fit R/S and aggregated variance on the window alone: both fall back to
  # the full grid at N = 1000, and at N = 100 the R/S window is exactly sizes 16-18
  hk matrix --source iid --n 1000 --runs 2 --estimator rs --estimator aggvar > iid_fallback_matrix.csv
  hk matrix --source iid --n 100 --estimator rs > iid_100_rs_matrix.csv
  # odd lengths, whose periodogram grid stops short of the Nyquist bin; on two workers
  # each row's job hands its one periodogram to both spectral cells
  hk generate --model fgn --h 0.75 --n 5001 --seed 18 --out fgn_odd.txt
  hk corrupt --kind ar1 --in fgn_odd.txt --seed 20 --out corrupt_ar1_odd.txt
  hk matrix --source fgn --n 4099 --h 0.8 --runs 2 --seed 21 --corruption none --corruption ar1 --corruption sine --corruption trend > fgn_odd_matrix.csv
  hk matrix --source file --path fgn_odd.txt --filter none --filter linear --filter poly --workers 2 --estimator pgram --estimator lwhittle > odd_pgram_lw_matrix.csv
  # all estimators, each row's spectral cells one job: four rows on four workers, and two 500-point rows
  # whose spectral cells refuse them
  hk matrix --source fgn --n 8192 --seed 27 --corruption none --corruption ar1 --corruption sine --corruption trend --workers 4 > fgn_all_w4_matrix.csv
  hk generate --model fgn --n 500 --seed 28 --out fgn_500.txt
  hk matrix --source file --path fgn_500.txt --filter none --filter linear --workers 2 > fgn_500_matrix.csv
  hk matrix --source trace --path trace.txt --mode bins --bin-width 0.0078125 --skip 10 --take 1500 --filter none --filter poly --estimator wavelet > tracesrc_matrix.csv
  hk matrix --source trace --path trace.txt --mode bins --bin-width 0.0078125 --skip 20 --take 1200 --filter none --filter linear --estimator rs --estimator wavelet --format aligned --out tracesrc_bins.aligned
  hk matrix --source trace --path trace.txt --mode interarrival --skip 7 --take 4000 --filter none --filter log --estimator aggvar --estimator lwhittle --format aligned --out tracesrc_gaps.aligned
  # refused commands: what each prints and its exit code are compared too
  refuse() { name=$1; shift; { hk "$@" && echo "exit 0" || echo "exit $?"; } > refused_$name.txt 2>&1; }
  printf 'source = iid\nn = 100\nbogus = 1\n' > unknown_key.cfg
  refuse unknown_key matrix --config unknown_key.cfg
  printf 'source = iid\nn = 100\nn = 200\n' > repeated_key.cfg
  refuse repeated_key matrix --config repeated_key.cfg
  printf '1.5\n2.5\n\351\n3.5\n' > non_ascii.txt
  refuse non_ascii estimate --method rs --in non_ascii.txt
  printf '1\n0\n2\n' > zeros.txt
  refuse log_zeros filter --kind log --in zeros.txt
  # corrupt and filter refuse a key their kind does not read, a second phi and an explosive one
  refuse corrupt_sine_seed corrupt --kind sine --seed 2 --in fgn.txt
  refuse corrupt_two_phi corrupt --kind ar1 --phi 0.5 --phi 0.3 --in fgn.txt
  refuse corrupt_phi_1.5 corrupt --kind ar1 --phi 1.5 --in fgn.txt
  refuse filter_log_degree filter --kind log --degree 4 --in fgn.txt
  refuse n_1e15 generate --model fgn --n 1000000000000000
  # more points than an array can index, and more workers than the matrix may start
  for m in fgn farima ar1 iid; do refuse n_1e20_$m generate --model $m --n 100000000000000000000; done
  refuse n_2e60_iid generate --model iid --n 1152921504606846976
  # farima draws n more innovations for its warm-up, so 2**59 points are already too many
  refuse n_2e59_farima generate --model farima --n 576460752303423488
  printf 'source = fgn\nn = 100000000000000000000\n' > n_1e20.cfg
  refuse n_1e20_config matrix --config n_1e20.cfg
  # one cell, so a checkout without the cap starts one thread
  refuse workers_1e5 matrix --source iid --n 2048 --estimator rs --workers 100000
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
