"""Verification harness: test-function corpus, lemma/theorem sweeps,
rate estimation, and the CLI."""

from .checks import (
    direct_check,
    error_decay,
    error_field,
    inverse_check,
    kendall_tau,
    lemma_suite,
    operator_dump,
    sequence_verdict,
)
from .config import DEFAULT_N_VALUES, DEFAULT_T_VALUES, ExperimentConfig
from .corpus import CORPUS_NAMES, corpus
from .rates import LemmaResult, RateReport, RateRow, fit_rate
