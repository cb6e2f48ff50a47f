"""Experiment harness: regenerate the paper's tables and ablations."""

from .ablation import ABLATION_VARIANTS, AblationReport, run_ablation
from .parallel import Unit, resolve_jobs, run_units
from .report import render_table
from .table1 import QUICK_FSMS, Table1Report, Table1Row, run_table1
from .sweep import SeedSweepReport, run_seed_sweep
from .table2 import QUICK_FSMS2, Table2Report, Table2Row, run_table2

__all__ = [
    "ABLATION_VARIANTS",
    "AblationReport",
    "run_ablation",
    "render_table",
    "QUICK_FSMS",
    "Table1Report",
    "Table1Row",
    "run_table1",
    "QUICK_FSMS2",
    "Table2Report",
    "Table2Row",
    "run_table2",
    "SeedSweepReport",
    "run_seed_sweep",
    "Unit",
    "resolve_jobs",
    "run_units",
]
