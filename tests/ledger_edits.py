"""A ledger with one record's state replaced, for the checks that must flag
that record."""

import dataclasses

import numpy as np

from proctherm.simulate import BranchLedger


def with_state(ledger: BranchLedger, labels: tuple[str, ...], state: np.ndarray) -> BranchLedger:
    """``ledger`` with the state of record ``labels`` replaced by ``state``
    in its group's stack."""
    groups = []
    for g in ledger.groups:
        if labels in g.records:
            states = g.states.copy()
            states[g.records.index(labels)] = state
            g = dataclasses.replace(g, states=states)
        groups.append(g)
    return dataclasses.replace(ledger, groups=tuple(groups))
