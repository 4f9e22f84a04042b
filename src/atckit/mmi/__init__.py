"""Desk-scale multitask MMI objective over discrete-emission HMM graphs."""

from .graphs import ARC_DTYPE, HmmGraph, OovWord, build_denominator, build_numerator, phone_bigram_counts
from .model import EmissionModel, MmiTask, TrainingUtterance, log_softmax
from .objective import (
    NoPath,
    compile_plan,
    emission_occupancy,
    forward_logprob,
    mmi_gradient,
    mmi_objective,
    multitask_objective,
)
from .train import (
    DivergenceDetected,
    TrainResult,
    build_tasks,
    divergence,
    load_phone_lexicon,
    load_training_corpus,
    pool_corpus,
    toy_train,
)

__all__ = [
    "ARC_DTYPE",
    "HmmGraph",
    "OovWord",
    "build_denominator",
    "build_numerator",
    "phone_bigram_counts",
    "EmissionModel",
    "MmiTask",
    "TrainingUtterance",
    "log_softmax",
    "NoPath",
    "compile_plan",
    "emission_occupancy",
    "forward_logprob",
    "mmi_gradient",
    "mmi_objective",
    "multitask_objective",
    "DivergenceDetected",
    "TrainResult",
    "build_tasks",
    "divergence",
    "load_phone_lexicon",
    "load_training_corpus",
    "pool_corpus",
    "toy_train",
]
