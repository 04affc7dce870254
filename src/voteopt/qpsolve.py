"""The status of one subset's continuous weight problem.

``QpStatus`` is the type of ``SubsetResult.status``: the weights of a fixed
subset either reach a certified optimum or admit no feasible point.
"""

import enum


class QpStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
