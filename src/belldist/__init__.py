"""belldist: distributional analysis of Q-iteration errors.

Subpackages cover the Gumbel/Logistic/Normal families with MLE fitting,
closed-form Gumbel algebra with a discount-mismatch KL bound, tabular
Q-iteration error tracking, the Gumbel approximation of Normal maxima,
Logistic order-statistic sampling error, reward-scaling analysis, the
Logistic likelihood loss, goodness-of-fit metrics, and a small seeded
training harness.

scipy.special is imported inside the functions that call it, never at module
level: its import costs more than the rest of the package together, and most
CLI commands never need it.
"""

__version__ = "0.1.0"

from .distributions import (  # noqa: F401
    EULER_MASCHERONI,
    DistSpec,
    Family,
    SampleBatch,
    cdf,
    fit_mle,
    log_likelihood,
    pdf,
    quantile,
    sample,
)
from .errors import (  # noqa: F401
    BelldistError,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    PreconditionError,
    ScaleMismatchError,
    TrainingError,
)
