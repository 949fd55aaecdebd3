"""Experiment configuration shared by the checks and the CLI."""
from __future__ import annotations

from dataclasses import dataclass

from ..blending import knots
from ..moduli import _check_t_values
from ..weights import EvalGrid, StepWeight, WeightParams, refined_grid
from .corpus import CORPUS_NAMES

__all__ = ["ExperimentConfig", "DEFAULT_N_VALUES", "DEFAULT_T_VALUES"]

# Sweep on which the lemma suite is green by definition.
DEFAULT_N_VALUES = (64, 128, 256, 512, 1024)
DEFAULT_T_VALUES = tuple(2.0**-k for k in range(9, 2, -1))


@dataclass(frozen=True)
class ExperimentConfig:
    params: WeightParams
    sw: StepWeight
    function_name: str = "inner-root"
    n_values: tuple = DEFAULT_N_VALUES
    t_values: tuple = DEFAULT_T_VALUES
    grid_density: int = 4097
    alpha0: float | None = None

    def __post_init__(self):
        if self.function_name not in CORPUS_NAMES:
            raise ValueError(
                f"unknown function {self.function_name!r}; choose from {CORPUS_NAMES}"
            )
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("n_values must be strictly increasing")
        for n in self.n_values:
            knots(n, self.params.xi)  # raises InvalidDegree for unusable n
        _check_t_values(self.t_values)

    def make_grid(self) -> EvalGrid:
        return refined_grid(self.params, uniform=self.grid_density)
