"""The two run alarms, overridable per run.

A carried packet is trusted only while it stays on the grid and the step
stays unitary. These two thresholds decide both, and a configuration's
`tolerances` section may set either to a positive value. The purely
numerical floors (norm precondition, density cut-offs, fit samples) are
constants next to their only reader.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Thresholds of the two run alarms.

    Attributes
    ----------
    boundary_mass : float
        Probability mass within 5 points of either grid edge above which a
        packet is considered to touch the boundary (coverage alarm).
    unitarity_drift : float
        Allowed |norm - 1| drift during propagation before the unitarity
        alarm raises.
    """

    boundary_mass: float = 1e-8
    unitarity_drift: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()
