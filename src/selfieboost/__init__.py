"""Boosting the accuracy of a single network.

Instead of accumulating an ensemble, each boosting iteration trains a
candidate tethered to the current network on a resampled working set and
adopts it only when a full-dataset edge test certifies progress.  Accepted
iterations shrink a log-sum-exp potential by at least the edge parameter,
so training error falls like ``exp(-rho * iterations)`` while prediction
still costs a single network evaluation.
"""

from .boost import (
    BoostConfig,
    EdgeReport,
    IterationRecord,
    MarginCache,
    RetryPolicy,
    SgdParams,
    TrainResult,
    edge,
    err,
    margins,
    run_selfieboost,
    sgd_inner,
)
from .baselines import (
    AdaBoostResult,
    CostReport,
    EnsembleModel,
    cost,
    run_adaboost,
    run_plain_sgd,
)
from .data import Dataset, gen_realizable, load_csv, save_csv
from .nnet import (
    FeedForwardNet,
    NetworkArchitecture,
    forward,
    forward_batch,
    grad_check,
    init_network,
    load_model,
    save_model,
    widen,
)
from .sampling import (
    SplitMix64,
    build_alias,
    sample_indices,
    weights_from_margins,
)
from .verify import (
    bound_suite,
    iteration_count_for,
    lse_inequality_deficit,
    oracle_step,
)

__version__ = "0.1.0"
