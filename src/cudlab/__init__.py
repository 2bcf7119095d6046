"""cudlab: exact enumeration, bijections, and generating-function checks for
cycle-up-down permutations and their relatives."""

from .catalog import (
    DEFAULT_ORDER_CAP,
    SEQUENCE_IDS,
    catalog_series,
    exc_polynomial,
    expected_ud_cycles,
    no_ud_cycles_count,
    secant_cf_convergent,
    sequence_terms,
)
from .perms import (
    CapExceeded,
    CycleDecomposition,
    DomainError,
    Family,
    MalformedInput,
    Permutation,
    format_cycles,
    format_permutation,
    from_cycles,
    is_member,
    parse_cycles,
    parse_permutation,
    switch,
    to_cycles,
)
from .series import MPoly, Series, euler_numbers, stirling_c
from .statistics import MinMaxPattern, StatVector, m_s, min_max_subsequence, stats

__version__ = "0.1.0"
