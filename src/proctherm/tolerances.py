"""Central registry of numerical tolerances.

Every check in the package reads its tolerance from one :class:`Tolerances`
instance so that the CLI can override individual values uniformly.  The
four constants below are fixed, not check tolerances, and are not
overridable: the two input guards, the eigenvalue floor of the entropies
and the width of one instant.  Assembly refuses a dilation whose
``dilation_unitary`` residual exceeds :data:`DEFAULT`'s, whatever the run
overrides.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

HERMITIAN = 1e-12   # max-norm floor on input matrices (Hermiticity, drive variants,
                    # projectors resolving the ancilla identity in orthogonal blocks)
KRAUS_TP = 1e-10    # bound on || sum K'K - 1 || of an accepted instrument
EIG_FLOOR = 1e-14   # eigenvalues below this count as zero in entropies
TIME_EPS = 1e-12    # times at most this far apart are one instant (see protocol)


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances, one per verified property."""

    psd: float = 1e-10                # admissible negative eigenvalue magnitude
    trace: float = 1e-12              # trace preservation (partial trace, dephasing map)
    dilation_unitary: float = 1e-10   # || U'U - 1 ||; the default bounds construction
    dilation_reconstruction: float = 1e-9
    equivalence_state: float = 1e-9   # autonomous vs direct conditional states
    equivalence_prob: float = 1e-10   # outcome-record probabilities
    prob_total: float = 1e-10         # sum of branch weights vs 1
    first_law: float = 1e-9
    second_law: float = 1e-9          # admissible negative entropy production
    sigma_forms: float = 1e-8         # first-law form vs relative-entropy form
    convention_average: float = 1e-10 # average agreement of the two work conventions
    prune: float = 1e-14              # branch weight below which branches are dropped

    def __post_init__(self):    # the one rule for the prune threshold; NaN fails it
        if not 0.0 <= self.prune < 1.0:
            raise ValueError(f"the prune threshold must be in [0, 1), got {self.prune!r}")
        for name, value in vars(self).items():    # a NaN bound fails every check, inf none
            if not math.isfinite(value):
                raise ValueError(f"tolerance {name} must be finite, got {value!r}")

    def replaced(self, **overrides: float) -> "Tolerances":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(f"unknown tolerance name(s): {', '.join(sorted(unknown))}")
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


DEFAULT = Tolerances()
