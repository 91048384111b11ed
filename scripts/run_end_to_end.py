"""Generate a realizable dataset, boost a single network on it, and verify
the recorded run against the convergence guarantee.

Usage: python scripts/run_end_to_end.py [workdir]
"""

import math
import sys
from pathlib import Path

from selfieboost import (
    BoostConfig,
    NetworkArchitecture,
    SgdParams,
    gen_realizable,
    run_selfieboost,
    save_model,
    theorem_bound_check,
)
from selfieboost.data import save_csv


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out_end_to_end")
    workdir.mkdir(parents=True, exist_ok=True)

    dataset, teacher = gen_realizable(
        m=2000, d=10, teacher_arch=NetworkArchitecture(10, (4,)), tau=0.1, seed=42
    )
    save_csv(dataset, workdir / "data.csv")
    save_model(teacher, workdir / "teacher.json")
    print(f"dataset: m={dataset.m} d={dataset.d} "
          f"min_margin={dataset.provenance.margin_floor:.6f}")

    config = BoostConfig(
        rho=0.1, T=50, n=256, sgd=SgdParams(steps=500, lr=0.05, batch=32),
        seed=42, init_scale=0.0, hidden=(32,),
    )
    result = run_selfieboost(dataset, config)
    save_model(result.final_net, workdir / "model.json")

    print(f"stop={result.stop_reason} accepted={result.accepted_count} "
          f"final_err={result.final_mistakes / dataset.m:.4f}")
    for rec in result.records:
        print(f"  t={rec.t:2d} edge={rec.edge:+.4f} "
              f"potential {rec.potential_before:7.4f} -> {rec.potential_after:7.4f} "
              f"err={rec.train_err:.4f} retries={rec.retries_used}")

    # the initial net's potential, as `selfieboost verify --suite bound` reads it
    initial = result.records[0].potential_before if result.records else math.log(dataset.m)
    ok = theorem_bound_check(result.records, dataset.m, initial, config.rho)
    print(f"recorded-run bound check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
