"""Many-to-many matching markets with choice functions.

Stability checking, exact stable-set enumeration, generalized deferred
acceptance, Blair-order comparisons, and a toolkit for analyzing strategic
misreporting under stable matching rules.  Every partner set is a plain int
mask over the owning agent's opposite side: each preference list entry, each
axiom witness set, each agent's matched set and each firm row of a matching.

The package root re-exports the names of the README example and the common
entry points; everything else is imported from its defining module.
"""

from .axioms import QuotaRanking, responsive_preference
from .core import MAX_SIDE, AgentId, Matching, Profile, Side
from .fileformat import parse_market
from .manipulation import verify_gmt
from .solver import StableRule, deferred_acceptance, side_optimal
from .stability import enumerate_stable
