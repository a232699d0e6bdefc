"""Deterministic state-vector engine for coherent branching machines.

A global pure state over control, memory, system, and policy registers
evolves under iterated controlled unitaries; memory slots coherently
record the branch taken each round, the policy register adapts to the
record and feeds back on the system, and analysis utilities decompose
the result into memory-labeled branches and reduced-state marginals.

The top level exports the names of the README's library sketch; every
other name is imported from its module (``branchsim.machine``,
``branchsim.analysis``, ...).
"""

from .analysis import branch_decompose, memory_marginal
from .machine import run
from .scenario import builtin_scenario

__version__ = "0.1.0"

__all__ = ["branch_decompose", "builtin_scenario", "memory_marginal", "run"]
