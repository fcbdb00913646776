"""liftdom: a finite-model workbench for constructive domain theory.

Builds the lifting construction, its algebras, colimits, smash/tensor
products and strict function spaces over two enumerable backends (finite
posets; internal posets in presheaves over a finite base poset), and
verifies the expected laws by exhaustive enumeration at desk scale.
"""

__version__ = "0.1.0"

from .backend import (  # noqa: F401
    ClassicalBackend,
    PresheafBackend,
    UnavailableError,
)
from .laws import REGISTRY, Bounds, run_law, run_negative  # noqa: F401
from .model import ModelError, ModelSpec, default_model, parse_model, render_model  # noqa: F401
from .oq1 import OQ1Bounds, search_open_question_1  # noqa: F401
from .order import (  # noqa: F401
    FinPoset,
    MonotoneMap,
    StructureError,
    Subset,
)
from .presheaf import (  # noqa: F401
    BasePoset,
    InternalPoset,
    NatTrans,
    Sieve,
    Subpresheaf,
    kj_forces,
    omega,
)
from .report import CheckReport, InstanceReport  # noqa: F401
