"""Reproduction harness: one module per paper table/figure.

Every experiment module exposes ``run(scale=...)`` returning a
structured result and ``render(result)`` producing the paper-style
text table/series.  ``scale='paper'`` uses the paper's problem sizes
(slow — hours of wall time through the Python DES), ``scale='quick'``
(default) uses reduced sizes that preserve the qualitative shape, and
``scale='tiny'`` exists for tests.  See DESIGN.md section 4 for the
experiment index and EXPERIMENTS.md for recorded results.
"""

from . import workloads
from . import metrics
from . import harness
from . import report
from . import fig1_tiling_effect
from . import table2_transfer_models
from . import table3_testbeds
from . import fig2_pipeline
from . import fig3_framework
from . import fig4_bts_validation
from . import fig5_dr_validation
from . import fig6_tile_selection
from . import fig7_performance
from . import table4_improvement
from . import summa
from . import full_report

__all__ = [
    "workloads",
    "metrics",
    "harness",
    "report",
    "fig1_tiling_effect",
    "table2_transfer_models",
    "table3_testbeds",
    "fig2_pipeline",
    "fig3_framework",
    "fig4_bts_validation",
    "fig5_dr_validation",
    "fig6_tile_selection",
    "fig7_performance",
    "table4_improvement",
    "summa",
    "full_report",
]
