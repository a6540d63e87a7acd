"""Parallel evaluation substrate: the serial evaluator, the worker farm and a PVM model.

The paper parallelises the GA's expensive evaluation phase with a synchronous
master/slave organisation on a PVM cluster.  This package provides the same
organisation as one chunked farm protocol (:class:`ChunkedWorkerFarm`, driven
by :class:`MasterSlaveEvaluator` over local processes or remote hosts), an
in-process reference backend
(:class:`SerialEvaluator`) and a deterministic cluster model
(:class:`SimulatedPVM`) used for reproducible speedup studies, together with
timing helpers.  The island-model extension lives in
:mod:`repro.parallel.island` and is re-exported lazily to avoid a circular
import with the GA core.
"""

from .base import (
    BatchEvaluator,
    DistinctEvaluation,
    EvaluationStats,
    FitnessCallable,
    SnpSet,
)
from .farm import (
    ChunkedWorkerFarm,
    ChunkStats,
    FarmDeadError,
    FarmRecoveryPolicy,
    affinity_worker,
)
from .master_slave import MasterSlaveEvaluator, default_worker_count
from .pvm import EvaluationCostModel, SimulatedPVM, SimulatedSchedule, SlaveTimeline
from .serial import SerialEvaluator
from .timing import SpeedupPoint, SpeedupReport, Timer, time_callable

__all__ = [
    "SnpSet",
    "FitnessCallable",
    "BatchEvaluator",
    "EvaluationStats",
    "DistinctEvaluation",
    "SerialEvaluator",
    "MasterSlaveEvaluator",
    "ChunkedWorkerFarm",
    "ChunkStats",
    "FarmDeadError",
    "FarmRecoveryPolicy",
    "affinity_worker",
    "default_worker_count",
    "EvaluationCostModel",
    "SimulatedPVM",
    "SimulatedSchedule",
    "SlaveTimeline",
    "SpeedupPoint",
    "SpeedupReport",
    "Timer",
    "time_callable",
    "IslandModelGA",
    "IslandResult",
]


def __getattr__(name: str):
    # Lazy re-export: island.py imports the GA core, which in turn uses this
    # package's evaluators; importing it eagerly here would create a cycle.
    if name in ("IslandModelGA", "IslandResult"):
        from . import island

        return getattr(island, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
