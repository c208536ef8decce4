"""Symbolic engine for the Floer chain complex of a negative line bundle.

Exact-rational bookkeeping of the complex's generators, degrees, actions and
filtration levels; Z/2 Novikov chain arithmetic above action floors; the fiber
differential with its explicit primitive; structural validation of external
higher-differential tables; and the level-descending construction of
primitives for closed chains, verified exactly on every run.

Every value the engine passes around is a named tuple: immutable, equal and
hashed by its fields.  ``FilteredDifferential`` is the one plain class, since
it builds a lookup of its table when it is made.

The public API is the import block below, written out name by name; ``__all__``
is derived from it: every public name it binds, minus modules.  A name stays
public if one of these holds:

- the CLI or the engine needs it;
- ``tests/test_acceptance.py`` needs it;
- the per-layer spec of ``BENCHMARK.json`` names it.

Any other helper goes rather than stay exported for its own tests.
"""

import types

from .bundle import (
    BundleParams,
    CaseTag,
    CritPoint,
    SemiPositivity,
    TheoremCase,
    is_semi_positive,
    minimal_chern_number,
    theorem_case,
    validate,
)
from .chains import (
    Chain,
    Truncated,
    add,
    build_chain,
    scalar_shift,
    serialize_chain,
    truncate,
    zero_chain,
)
from .differentials import (
    FilteredDifferential,
    HigherDifferentialEntry,
    TableValidationError,
    apply_d0,
    apply_table,
    apply_total,
    check_d_squared_window,
    d0_primitive,
    load_table,
    split_by_level,
    validate_entry,
)
from .generators import (
    Generator,
    InfiniteSliceError,
    action,
    canonical_sort,
    cz_fiber_disk,
    cz_flat_capping,
    enumerate_generators,
    eta,
    grading,
    level,
    sphere_class_floor,
)
from .randomized import random_admissible_table, random_boundary, random_chain
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .vanishing import (
    ClassReport,
    InductionError,
    LevelBound,
    NotClosedError,
    PrimitiveResult,
    find_primitive,
    level_floor,
    verify_primitive,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
