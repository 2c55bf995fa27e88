"""Simulator and verification harness for quantum causal models.

Evaluates multi-time intervention sequences (process tensors) directly,
reconstructs them from an inclusive autonomous Hamiltonian model (system,
bath, ancilla stream, classical memory), and computes trajectory-resolved
work, heat, internal energy, entropy, free energy and entropy production,
checking the identities that relate them.
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller set a count, before NumPy loads: a
# threaded BLAS sums in an order that depends on the thread count, so the
# same scenario and seed would give bundles that differ in the last digits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .channels import (
    CPMap,
    Instrument,
    InterventionSchedule,
    evaluate_process_tensor,
)
from .dilation import (
    DilationResult,
    dephasing_unitary,
    dilate_channel,
    dilate_instrument,
    measurement_unitary,
)
from .protocol import Protocol, Segment, discretize_ramp
from .scenario import Scenario, ScenarioError, build_model, parse_scenario
from .simulate import (
    AutonomousModel,
    Branch,
    BranchLedger,
    RunResult,
    Simulator,
    StepTrace,
)
from .thermo import ThermoEvaluator, ThermoLedger, evaluate_run
from .tolerances import DEFAULT, Tolerances
