"""Central registry of numerical tolerances.

Every check in the package reads its tolerance from one :class:`Tolerances`
instance so that the CLI can override individual values uniformly.  The
three constants below are fixed, not check tolerances, and are not
overridable: two numerical floors and the width of one instant.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

HERMITIAN = 1e-12   # max-norm Hermiticity residual accepted on input matrices
EIG_FLOOR = 1e-14   # eigenvalues below this count as zero in entropies
TIME_EPS = 1e-12    # times at most this far apart are one instant (see protocol)


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances, one per verified property."""

    psd: float = 1e-10                # admissible negative eigenvalue magnitude
    trace: float = 1e-12              # trace preservation (partial trace, dephasing map)
    kraus_tp: float = 1e-10           # || sum K'K - 1 ||
    choi_psd: float = 1e-10           # complete positivity, Choi eigenvalue floor
    dilation_unitary: float = 1e-10   # || U'U - 1 || for synthesized unitaries
    dilation_reconstruction: float = 1e-9
    dephasing_cost: float = 1e-12     # energy cost of the memory dephasing unitary
    equivalence_state: float = 1e-9   # autonomous vs direct conditional states
    equivalence_prob: float = 1e-10   # outcome-record probabilities
    prob_total: float = 1e-10         # sum of branch weights vs 1
    first_law: float = 1e-9
    second_law: float = 1e-9          # admissible negative entropy production
    sigma_forms: float = 1e-8         # first-law form vs relative-entropy form
    convention_average: float = 1e-10 # average agreement of the two work conventions
    prune: float = 1e-14              # branch weight below which branches are dropped

    def replaced(self, **overrides: float) -> "Tolerances":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise KeyError(f"unknown tolerance name(s): {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


DEFAULT = Tolerances()
