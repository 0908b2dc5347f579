"""Section 6 extensions: weaker/stronger guarantees and other query shapes.

Every variant is reached through the Session API (``.top(t)``,
``.trends()``, ``.values(within=d)``, ``.mistakes(gamma)``, ``total(Y)``,
``count("*")``, two AVGs, several GROUP BY columns, ``.stream()``,
``.on_engine("noindex")``); the planner calls the ``_run_*`` functions in
these modules.  What stays public here are the helpers with no Session form.
"""

from repro.extensions.counts import run_count_unknown
from repro.extensions.multi import MultiAvgResult, composite_group_column
from repro.extensions.sums import run_ifocus_sum_unknown
from repro.extensions.topt import TopTResult
from repro.extensions.trends import chain_neighbors, grid_neighbors

__all__ = [
    "run_count_unknown",
    "MultiAvgResult",
    "composite_group_column",
    "run_ifocus_sum_unknown",
    "TopTResult",
    "chain_neighbors",
    "grid_neighbors",
]
