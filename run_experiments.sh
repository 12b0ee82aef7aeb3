#!/bin/bash
# Runs `repro` experiments at full paper scale, one log per experiment under
# results/ (tables, then the claims checked against them):
#   run_experiments.sh [all]    every table/figure/ablation/extension, the regression
#                               grid, the planner evaluation and the scaling sweep
#   run_experiments.sh ext      the ablations and extension experiments only
#   run_experiments.sh fig4 …   just the named experiments
# SJ_SCALE overrides the dataset scale.
set -u
cd "$(dirname "$0")"
all="table1 table2 table3 fig3 fig4 fig5 fig6 fig11 fig11m fig12 fig13 fig14 ablations ext_baselines ext_skew regress planner scaling"
case "${1:-all}" in
  all) ids=$all ;;
  ext) ids="ablations ext_baselines ext_skew" ;;
  *)
    for id in "$@"; do
      case " $all " in *" $id "*) ;; *) echo "usage: $0 [all|ext|<id>…]   ids: $all" >&2; exit 2 ;; esac
    done
    ids="$*" ;;
esac
for id in $ids; do
  echo "=== running $id ($(date +%T)) ==="
  SJ_SCALE=${SJ_SCALE:-1.0} timeout 3600 cargo run --release -q -p bench --bin repro -- $id > results/$id.txt 2>&1
  echo "=== done $id rc=$? ($(date +%T)) ==="
done
echo ALL_DONE
