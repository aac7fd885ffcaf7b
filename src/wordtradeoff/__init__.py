"""Quantify word-order vs. word-structure information in parallel texts.

Given verse-aligned parallel corpora, this package estimates how many
bits per character a text loses when its word order is destroyed and,
separately, when the internal structure of its words is masked. The
two penalties locate each language on an analytic-synthetic spectrum
and expose the statistical trade-off between the two coding strategies.
"""

from .corpus import (
    BOOK_NAMES,
    DEFAULT_BOOK_IDS,
    Book,
    CorpusFormatError,
    Translation,
    Verse,
    VerseRef,
    flatten,
    parse_corpus,
    truncate_books,
)
from .entropy import (
    KernelBuildError,
    MatchLengths,
    entropy_rate,
    match_lengths,
    match_lengths_naive,
    run_oracle_check,
)
from .measures import (
    BookMeasurement,
    GroupMeans,
    MeasureConfig,
    ResultsTable,
    aggregate,
    measure_book,
    measure_replicate,
    read_results_csv,
    write_results_csv,
)
from .stats import (
    CorrelationMatrix,
    InsufficientDataError,
    PermutationTestResult,
    RankHistograms,
    RankTables,
    RegressionFit,
    correlation_matrix,
    exact_perm_test,
    fit_reciprocal,
    rank_books,
    rank_histograms,
    spearman,
)
from .transforms import (
    MaskSpaceExhaustedError,
    MaskTable,
    Xorshift64Star,
    build_mask_table,
    derive_seed,
    destroy_word_order,
    mask_word_structure,
    shuffle_verses,
)

__version__ = "0.1.0"

__all__ = [
    "BOOK_NAMES",
    "DEFAULT_BOOK_IDS",
    "Book",
    "BookMeasurement",
    "CorpusFormatError",
    "CorrelationMatrix",
    "GroupMeans",
    "InsufficientDataError",
    "KernelBuildError",
    "MaskSpaceExhaustedError",
    "MaskTable",
    "MatchLengths",
    "MeasureConfig",
    "PermutationTestResult",
    "RankHistograms",
    "RankTables",
    "RegressionFit",
    "ResultsTable",
    "Translation",
    "Verse",
    "VerseRef",
    "Xorshift64Star",
    "aggregate",
    "build_mask_table",
    "correlation_matrix",
    "derive_seed",
    "destroy_word_order",
    "entropy_rate",
    "exact_perm_test",
    "fit_reciprocal",
    "flatten",
    "mask_word_structure",
    "match_lengths",
    "match_lengths_naive",
    "measure_book",
    "measure_replicate",
    "parse_corpus",
    "rank_books",
    "rank_histograms",
    "read_results_csv",
    "run_oracle_check",
    "shuffle_verses",
    "spearman",
    "truncate_books",
    "write_results_csv",
]
