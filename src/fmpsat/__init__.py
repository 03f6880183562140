"""Feature membership queries on decision-diagram classifiers, decided by SAT."""

from .batch import (
    BatchQuery,
    batch_run,
    generate_random_classifier,
    generate_random_obdd,
    obdd_to_shannon_sdd,
    random_instance,
)
from .encode import (
    CnfFormula,
    VarMap,
    encode_sdd_onestep,
    encode_sdd_twostep,
    encode_xpg_onestep,
    encode_xpg_twostep,
    write_dimacs,
)
from .errors import (
    ClassifierError,
    EncodingError,
    FmpsatError,
    ParseError,
    SolverError,
    SolverTimeout,
)
from .explain import (
    DtClassifier,
    Instance,
    ObddClassifier,
    SddClassifier,
    XpgClassifier,
    enumerate_axps_bruteforce,
    enumerate_cxps_bruteforce,
    find_axp,
    find_cxp,
    is_weak_axp,
    is_weak_cxp,
    parse_instance,
)
from .fmp import FmpOutcome, FmpQuery, build_encoding, decide_membership
from .sat import SatResult, solve
from .sdd import (
    Sdd,
    Vtree,
    consistency_under,
    evaluate,
    is_consistent,
    negate,
    parse_sdd,
    parse_vtree,
    serialize_sdd,
    serialize_vtree,
)
from .xpg import (
    DecisionTree,
    Obdd,
    XpGraph,
    build_xpg_from_dt,
    build_xpg_from_obdd,
    evaluate_sigma,
    parse_dt,
    parse_obdd,
    parse_xpg,
    serialize_obdd,
    serialize_xpg,
)

__version__ = "0.1.0"
