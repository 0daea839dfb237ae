"""Promote character-level regex patterns to subword-token automata.

A pattern compiled over a token vocabulary can be lifted to an automaton over
whole tokens: either accepting every tokenization of every matching string,
or exactly one canonical tokenization per string (greedy longest-match or
byte-pair). The promoted automaton drives a token-mask stepping API for
constrained generation.
"""

from .errors import (
    AlphabetError,
    ConfigError,
    ConstraintError,
    ConstraintViolationError,
    DeadConstraintError,
    EnumerationError,
    IncompleteGenerationError,
    PatternSyntaxError,
    TokfstError,
    ValidationError,
)
from .formats import export_dot, load_automaton, load_merges, load_vocab, save_automaton
from .fst import (
    Dfa,
    Fst,
    Transition,
    accepts,
    canonical_form,
    compose,
    determinize,
    enumerate_language,
    epsilon_remove,
    minimize,
    project_output,
    trim,
)
from .guided import (
    END_OF_SEQUENCE,
    ConstraintState,
    StubLM,
    allowed_tokens,
    constraint_advance,
    constraint_begin,
    constrained_decode,
)
from .lexicon import (
    FailureTrie,
    MergeGadget,
    build_failure_trie,
    build_lexicon_transducer,
    build_maxmatch_transducer,
    build_merge_gadget,
)
from .pattern import compile_pattern
from .promote import (
    PromotionResult,
    StageStats,
    check_promotion,
    language_by_chars,
    promote_agnostic,
    promote_bpe,
    promote_bpe_chained,
    promote_maxmatch,
)
from .symbols import EPSILON, FAILURE, SymbolTable
from .tokenizers import (
    BpeTokenizer,
    Vocabulary,
    apply_merge,
    bpe_train,
    count_segmentations,
    iter_segmentations,
    maxmatch_tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetError",
    "BpeTokenizer",
    "ConfigError",
    "ConstraintError",
    "ConstraintState",
    "ConstraintViolationError",
    "DeadConstraintError",
    "Dfa",
    "END_OF_SEQUENCE",
    "EPSILON",
    "EnumerationError",
    "FAILURE",
    "FailureTrie",
    "Fst",
    "IncompleteGenerationError",
    "MergeGadget",
    "PatternSyntaxError",
    "PromotionResult",
    "StageStats",
    "StubLM",
    "SymbolTable",
    "TokfstError",
    "Transition",
    "ValidationError",
    "Vocabulary",
    "accepts",
    "allowed_tokens",
    "apply_merge",
    "bpe_train",
    "build_failure_trie",
    "build_lexicon_transducer",
    "build_maxmatch_transducer",
    "build_merge_gadget",
    "canonical_form",
    "check_promotion",
    "compile_pattern",
    "compose",
    "constrained_decode",
    "constraint_advance",
    "constraint_begin",
    "count_segmentations",
    "determinize",
    "enumerate_language",
    "epsilon_remove",
    "export_dot",
    "iter_segmentations",
    "language_by_chars",
    "load_automaton",
    "load_merges",
    "load_vocab",
    "maxmatch_tokenize",
    "minimize",
    "project_output",
    "promote_agnostic",
    "promote_bpe",
    "promote_bpe_chained",
    "promote_maxmatch",
    "save_automaton",
    "trim",
]
