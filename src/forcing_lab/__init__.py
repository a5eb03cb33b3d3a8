"""forcing-lab: desk-scale generic-filter constructions with verifiable traces.

Conditions, posets and dense-set oracles; entangled pairs/tuples of Cohen
generics that individually pass every dense-set test yet jointly decode an
arbitrary payload; the same coding over any wide poset via indexed
antichains; and the upward-closure construction bounding finitely many
mutually generic rows by a single generic plane, changing each row in only
finitely many places. Everything is checked against explicit countable
families of dense-set oracles and audited through replayable traces.
"""

from .bits import (BitStream, BitString, ConstTail, PatchedStream,
                   PayloadSource, PrngTail, read_bit_file, write_bit_file)
from .closure import bound_chain, build_generics_run, verify_bound
from .dense import (DenseFamily, DenseSet, family_from_spec, load_family_file,
                    min_length_family, mixed_cohen_family, mixed_plane_family,
                    square_family)
from .entangle import decode_many, decode_pair, entangle_many, entangle_pair
from .errors import (AmbiguousNat, BadArity, BudgetExceeded, CheckFailure,
                     ConsistencyFailure, EmptyFamily, FamilyTooSmall,
                     ForcingLabError, IncompatibleCommitment,
                     IncompatibleConditions, InternalError, NoAntichainHit,
                     NoMarker, PayloadExhausted, RetryBudgetExceeded,
                     UsageError, WitnessViolation)
from .generic import GenericityReport, meets_family, mutual_genericity_check
from .plane import GenericPlane, PlaneCondition, merge_conditions
from .posets import (CountablePoset, WidenessWitness, cohen_element,
                     cohen_index, cohen_poset, cohen_wide_witness,
                     validate_wideness_witness)
from .trace import (ChainBoundTrace, GenericsTrace, ManyTrace, PairTrace,
                    WideTrace, load_trace, write_trace)
from .verify import verify_trace
from .wide import decode_wide, entangle_wide

__version__ = "0.1.0"

__all__ = [
    "BitStream", "BitString", "ConstTail", "PatchedStream", "PayloadSource",
    "PrngTail", "read_bit_file", "write_bit_file",
    "bound_chain", "build_generics_run", "verify_bound",
    "DenseFamily", "DenseSet", "family_from_spec", "load_family_file",
    "min_length_family", "mixed_cohen_family", "mixed_plane_family",
    "square_family",
    "decode_many", "decode_pair", "entangle_many", "entangle_pair",
    "AmbiguousNat", "BadArity", "BudgetExceeded", "CheckFailure",
    "ConsistencyFailure", "EmptyFamily", "FamilyTooSmall", "ForcingLabError",
    "IncompatibleCommitment", "IncompatibleConditions", "InternalError",
    "NoAntichainHit", "NoMarker", "PayloadExhausted", "RetryBudgetExceeded",
    "UsageError", "WitnessViolation",
    "GenericityReport", "meets_family", "mutual_genericity_check",
    "GenericPlane", "PlaneCondition", "merge_conditions",
    "CountablePoset", "WidenessWitness", "cohen_element", "cohen_index",
    "cohen_poset", "cohen_wide_witness", "validate_wideness_witness",
    "ChainBoundTrace", "GenericsTrace", "ManyTrace", "PairTrace", "WideTrace",
    "load_trace", "write_trace", "verify_trace",
    "decode_wide", "entangle_wide",
]
