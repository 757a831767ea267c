"""The standing defect corpus and differential fuzz harness.

* :mod:`~repro.corpus.cases` — the tiny models, mutations, and case
  shapes every entry is built from (shared with the contracts tests).
* :mod:`~repro.corpus.registry` — declarative :class:`CorpusEntry`
  records: one known-bad mutation each, with the taxonomy class and
  per-guard-mode outcome it must classify as.
* :mod:`~repro.corpus.runner` — replays entries across engines x guard
  modes x worker counts, asserting identical classification and
  byte-identical reports.
* :mod:`~repro.corpus.fuzz` — the seed-derived differential fuzzer
  with greedy shrinking and ready-to-commit finding emission.

CLI: ``repro corpus list|run|add`` and ``repro fuzz``.  See
``docs/corpus.md``.
"""

from repro.corpus.cases import CheckCase
from repro.corpus.registry import (
    DEFAULT_CORPUS_FILE,
    ENGINES,
    MODES,
    WORKER_COUNTS,
    CorpusEntry,
    builtin_entries,
    entry_by_name,
    entry_from_record,
    load_file_entries,
)
from repro.corpus.runner import (
    EXIT_DIVERGENCE,
    Classification,
    CorpusReport,
    EntryResult,
    classify_check,
    run_corpus,
    run_entry,
)
from repro.corpus.fuzz import (
    FuzzReport,
    corpus_record,
    diff_case,
    generate_case,
    run_fuzz,
    shrink_case,
)

__all__ = [
    "CheckCase",
    "Classification",
    "CorpusEntry",
    "CorpusReport",
    "DEFAULT_CORPUS_FILE",
    "ENGINES",
    "EntryResult",
    "EXIT_DIVERGENCE",
    "FuzzReport",
    "MODES",
    "WORKER_COUNTS",
    "builtin_entries",
    "classify_check",
    "corpus_record",
    "diff_case",
    "entry_by_name",
    "entry_from_record",
    "generate_case",
    "load_file_entries",
    "run_corpus",
    "run_entry",
    "run_fuzz",
    "shrink_case",
]
