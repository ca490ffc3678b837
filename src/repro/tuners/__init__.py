"""Optimizer portfolio implementing the shared ask/tell tuning interface.

The paper's suite exists so that optimization algorithms from different autotuners can
be compared on identical problems.  This subpackage provides that algorithm portfolio:

================  ==========================================================
``random``        uniform random search (the paper's Fig. 2 baseline)
``grid``          deterministic sweep in mixed-radix order
``local``         first/best-improvement hill climbing with random restarts
``annealing``     simulated annealing over the neighbourhood graph
``genetic``       steady-state genetic algorithm with uniform crossover
``diff_evo``      discrete differential evolution
``pso``           particle swarm optimization on the encoded space
``surrogate``     GBDT surrogate model with expected-improvement-style ranking
``greedy_ils``    greedy iterated local search (randomised restarts + perturbation)
================  ==========================================================

plus :mod:`repro.tuners.portfolio`, which runs several tuners under a shared budget.
An external framework integrates the way these optimizers do: by consuming a
:class:`~repro.core.problem.TuningProblem`.
"""

from __future__ import annotations

from typing import Callable

from repro.tuners.base import Tuner
from repro.tuners.random_search import RandomSearch
from repro.tuners.grid_search import GridSearch
from repro.tuners.local_search import LocalSearch, GreedyILS
from repro.tuners.simulated_annealing import SimulatedAnnealing
from repro.tuners.genetic import GeneticAlgorithm
from repro.tuners.differential_evolution import DifferentialEvolution
from repro.tuners.pso import ParticleSwarm
from repro.tuners.surrogate import SurrogateSearch
from repro.tuners.portfolio import PortfolioTuner

__all__ = [
    "Tuner",
    "RandomSearch",
    "GridSearch",
    "LocalSearch",
    "GreedyILS",
    "SimulatedAnnealing",
    "GeneticAlgorithm",
    "DifferentialEvolution",
    "ParticleSwarm",
    "SurrogateSearch",
    "PortfolioTuner",
    "all_tuners",
]


def all_tuners() -> dict[str, Callable[..., Tuner]]:
    """Factories for every shipped tuner, keyed by canonical name.

    Each factory accepts ``seed=`` plus the tuner's own keyword options.
    """
    return {
        "random": RandomSearch,
        "grid": GridSearch,
        "local": LocalSearch,
        "greedy_ils": GreedyILS,
        "annealing": SimulatedAnnealing,
        "genetic": GeneticAlgorithm,
        "diff_evo": DifferentialEvolution,
        "pso": ParticleSwarm,
        "surrogate": SurrogateSearch,
    }
