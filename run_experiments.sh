#!/bin/bash
# Runs experiment binaries at full paper scale, one log per experiment under
# results/:
#   run_experiments.sh [all]    every table/figure/ablation binary
#   run_experiments.sh ext      the extension experiments only
#   run_experiments.sh median   the noisy figures, median of three repeats
#   run_experiments.sh fig4 …   just the named binaries
# SJ_SCALE / SJ_REPEAT override the dataset scale and the repeat count.
set -u
cd "$(dirname "$0")"
case "${1:-all}" in
  all) bins="table1 table2 table3 fig3 fig4 fig5 fig6 fig11 fig11m fig12 fig13 fig14 ablations ext_baselines ext_skew"; repeat=1 ;;
  ext) bins="ablations ext_baselines ext_skew"; repeat=1 ;;
  median) bins="fig11 fig12 fig14"; repeat=3 ;;
  *)
    for b in "$@"; do
      [ -f "crates/bench/src/bin/$b.rs" ] || { echo "usage: $0 [all|ext|median|<bin>…]" >&2; exit 2; }
    done
    bins="$*"; repeat=1 ;;
esac
for b in $bins; do
  echo "=== running $b ($(date +%T)) ==="
  SJ_SCALE=${SJ_SCALE:-1.0} SJ_REPEAT=${SJ_REPEAT:-$repeat} timeout 3600 cargo run --release -q -p bench --bin $b > results/$b.txt 2>&1
  echo "=== done $b rc=$? ($(date +%T)) ==="
done
echo ALL_DONE
