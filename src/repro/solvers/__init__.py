"""Min-cost max-flow solvers used by the Firmament scheduler.

The package provides four from-scratch MCMF algorithms (Section 4 of the
paper), an incremental variant of cost scaling (Section 5.2), the
problem-specific heuristics of Section 5.3, and the speculative
dual-algorithm executor of Section 6.1:

* :class:`~repro.solvers.cycle_canceling.CycleCancelingSolver`
* :class:`~repro.solvers.successive_shortest_path.SuccessiveShortestPathSolver`
* :class:`~repro.solvers.cost_scaling.CostScalingSolver` (with the alpha
  scaling factor and the price-refine heuristic)
* :class:`~repro.solvers.relaxation.RelaxationSolver` (with the
  arc-prioritization heuristic)
* :class:`~repro.solvers.incremental.IncrementalCostScalingSolver`
* :class:`~repro.solvers.incremental_relaxation.IncrementalRelaxationSolver`
  (the warm-start variant Section 5.2 argues against; kept for the ablation)
* :class:`~repro.solvers.dual_executor.DualAlgorithmExecutor` (sequential,
  models the race) and
  :class:`~repro.solvers.parallel_executor.ParallelDualExecutor` (races a
  relaxation worker subprocess against parent-side incremental cost
  scaling for real)
* :class:`~repro.solvers.worker.SolverWorker`, the out-of-process solver
  transport shared by the racing executor and the scheduler's cell workers

All solvers share the :class:`~repro.solvers.base.Solver` interface: they
take a :class:`~repro.flow.graph.FlowNetwork`, assign an optimal flow to its
arcs, and return a :class:`~repro.solvers.base.SolverResult` with statistics.
"""

from repro.solvers.base import (
    COMPLEXITY_TABLE,
    PRECONDITION_TABLE,
    RoundDeadline,
    RoundDeadlineExceeded,
    SolveAborted,
    Solver,
    SolverResult,
    SolverStatistics,
)
from repro.solvers.cycle_canceling import CycleCancelingSolver
from repro.solvers.successive_shortest_path import SuccessiveShortestPathSolver
from repro.solvers.cost_scaling import (
    PRICE_REFINE_MODES,
    CostScalingSolver,
    price_refine_dijkstra,
    price_refine_spfa,
)
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.incremental_relaxation import IncrementalRelaxationSolver
from repro.solvers.dual_executor import (
    EXECUTOR_POLICIES,
    DualAlgorithmExecutor,
    DualExecutionResult,
    RaceCostModel,
    SpeculativeDualExecutor,
)
from repro.solvers.parallel_executor import ParallelDualExecutor
from repro.solvers.worker import RevisionChainCache, SolverWorker
from repro.solvers.worker_health import WorkerCircuitBreaker

__all__ = [
    "COMPLEXITY_TABLE",
    "EXECUTOR_POLICIES",
    "PRECONDITION_TABLE",
    "PRICE_REFINE_MODES",
    "RaceCostModel",
    "RevisionChainCache",
    "price_refine_dijkstra",
    "price_refine_spfa",
    "RoundDeadline",
    "RoundDeadlineExceeded",
    "SolveAborted",
    "SolverWorker",
    "WorkerCircuitBreaker",
    "Solver",
    "SolverResult",
    "SolverStatistics",
    "CycleCancelingSolver",
    "SuccessiveShortestPathSolver",
    "CostScalingSolver",
    "RelaxationSolver",
    "IncrementalCostScalingSolver",
    "IncrementalRelaxationSolver",
    "DualAlgorithmExecutor",
    "DualExecutionResult",
    "SpeculativeDualExecutor",
    "ParallelDualExecutor",
]

#: The scheduler's ``executor`` names (and the CLI's ``--executor`` choices),
#: mapped to the :func:`make_solver` registry name each one builds:
#: ``"sequential"`` runs both algorithms back to back and models the race,
#: ``"parallel"`` races them for real across processes.
EXECUTORS = {"sequential": "firmament_dual", "parallel": "firmament_dual_parallel"}


def make_solver(name: str, **kwargs) -> Solver:
    """Construct a solver by name.

    Recognized names: ``cycle_canceling``, ``successive_shortest_path``,
    ``cost_scaling``, ``relaxation``, ``incremental_cost_scaling``,
    ``incremental_relaxation``, ``firmament_dual`` (sequential dual
    executor), ``firmament_dual_parallel`` (subprocess-racing executor).
    """
    registry = {
        "cycle_canceling": CycleCancelingSolver,
        "successive_shortest_path": SuccessiveShortestPathSolver,
        "cost_scaling": CostScalingSolver,
        "relaxation": RelaxationSolver,
        "incremental_cost_scaling": IncrementalCostScalingSolver,
        "incremental_relaxation": IncrementalRelaxationSolver,
        "firmament_dual": DualAlgorithmExecutor,
        "firmament_dual_parallel": ParallelDualExecutor,
    }
    if name not in registry:
        raise ValueError(f"unknown solver {name!r}; choose from {sorted(registry)}")
    return registry[name](**kwargs)

