import math

import numpy as np
import pytest

from distdetect import analysis, network, prob, signals
from distdetect.errors import DistDetectError

from conftest import INFORMATIVE, UNINFORMATIVE_2


def _scenario():
    return analysis.Scenario(
        model=signals.SignalModel([INFORMATIVE, UNINFORMATIVE_2]),
        process=network.fixed_process(np.full((2, 2), 0.5)),
        horizon=5, learning_rate="unit", delta=0.1, checkpoints=(5,),
    )


# (call, message) of each assumption check that no other test reaches
CHECKS = {
    "mixing-1-agent": (lambda: network.validate_mixing([[1.0]]),
                       "mixing matrix needs n >= 2"),
    "mixing-nan": (lambda: network.validate_mixing([[math.nan, 0.5], [0.5, 0.5]]),
                   "mixing matrix has non-finite entries"),
    "mixing-negative": (lambda: network.validate_mixing([[1.5, -0.5], [-0.5, 1.5]]),
                        "mixing matrix has negative entries"),
    "mixing-asymmetric": (lambda: network.validate_mixing([[0.5, 0.5], [0.4, 0.6]]),
                          "mixing matrix is not symmetric"),
    "mixing-row-sum": (lambda: network.validate_mixing([[0.5, 0.4], [0.4, 0.5]]),
                       "mixing matrix rows do not sum to 1"),
    "graph-self-loop": (lambda: network.gossip_process(3, [(1, 1)]),
                        "self-loop on vertex 1"),
    "graph-edge-range": (lambda: network.gossip_process(3, [(0, 3)]),
                         r"edge \(0,3\) outside vertex range \[0,3\)"),
    "support-empty": (lambda: network.finite_support_process([]),
                      "finite-support process needs at least one matrix"),
    "support-zero-prob": (lambda: network.finite_support_process([(np.eye(2), 0.0)]),
                          "nonpositive probability 0.0"),
    "support-prob-sum": (lambda: network.finite_support_process([(np.eye(2), 0.5)]),
                         r"probabilities sum to \S*0\.5\S*, not 1"),
    "verify-target": (lambda: analysis.monte_carlo_verify(_scenario(), "both", 3, 0),
                      "unknown verification target 'both'"),
    "verify-trials": (lambda: analysis.monte_carlo_verify(_scenario(), "prop1", 0, 0),
                      "need at least one trial"),
    "gibbs-eta": (lambda: prob.gibbs_belief([0.0, 1.0], 0.0),
                  "learning rate must be positive, got 0.0"),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_assumption_check_raises_package_error(call, message):
    with pytest.raises(DistDetectError, match=message):
        call()
