import json

import numpy as np
import pytest

from belldist import DistSpec, SampleBatch
from belldist.gof import ks_statistic
from belldist.mdp import TabularMdp


def ks_against(values: np.ndarray, law: DistSpec) -> float:
    """Two-sided KS of raw values against a DistSpec law."""
    return ks_statistic(SampleBatch(np.asarray(values, dtype=float)), law)


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
