import json

import numpy as np
import pytest
from hypothesis import strategies as st

from belldist import DistSpec, Family, SampleBatch
from belldist.gof import ks_statistic
from belldist.mdp import TabularMdp


def ks_against(values: np.ndarray, law: DistSpec) -> float:
    """Two-sided KS of raw values against a DistSpec law."""
    return ks_statistic(SampleBatch(np.asarray(values, dtype=float)), law)


def magnitudes():
    """Floats 10**e for e in [-300, 308]: positive magnitudes from 1e-300 up to
    float64's last decade."""
    return st.floats(-300.0, 308.0).map(lambda e: 10.0**e)


def signed_magnitudes():
    """Magnitudes of either sign, and zero."""
    return st.one_of(st.just(0.0), magnitudes(), magnitudes().map(lambda m: -m))


def laws():
    """A law of each family with a signed magnitude (or zero) for its
    location and a magnitude for its scale."""
    return st.builds(DistSpec, st.sampled_from(list(Family)), signed_magnitudes(), magnitudes())


def logs_equal(a, b) -> bool:
    """Whether two ``TrainLog``s hold the same bits: rewards, every epoch's
    Bellman errors and the final Q table."""
    return (
        np.array_equal(a.rewards, b.rewards)
        and len(a.bellman_errors) == len(b.bellman_errors)
        and all(np.array_equal(x, y) for x, y in zip(a.bellman_errors, b.bellman_errors))
        and np.array_equal(a.final_q, b.final_q)
    )


def mdp_json(mdp: TabularMdp) -> str:
    """``mdp`` in the JSON schema that ``TabularMdp.from_json`` reads."""
    return json.dumps(
        {
            "n_states": mdp.n_states,
            "n_actions": mdp.n_actions,
            "gamma": mdp.gamma,
            "transitions": mdp.transition.tolist(),
            "rewards": mdp.reward.tolist(),
        },
        sort_keys=True,
    )


@pytest.fixture
def rng():
    # Philox so test draws share the package's counter-based generator family.
    return np.random.Generator(np.random.Philox(key=20240817))
