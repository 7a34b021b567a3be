"""Exception types shared across the package."""


class SegforgeError(Exception):
    """Base class for all segforge errors."""


class NotFoundError(SegforgeError):
    """No filing exists for the requested firm-year."""


class AmbiguousFilingError(SegforgeError):
    """Multiple original filings matched one firm-year; signals index corruption."""


class NetworkError(SegforgeError):
    """Transport failure. ``retryable`` marks transient conditions (5xx, timeouts).

    ``retry_after`` is the wait in seconds that the server asked for, if any.
    """

    def __init__(self, message: str, retryable: bool = True, retry_after: float | None = None):
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after


class CacheWriteError(SegforgeError):
    """Failed to persist a fetched document to the on-disk cache."""


class EmptyDocumentError(SegforgeError):
    """Document contained no visible text."""


class NoItemsFoundError(SegforgeError):
    """No SEC item headings matched; caller should fall back to whole-document mode."""


class UploadError(SegforgeError):
    """Live backend failed to upload a document."""


class ScriptMissError(SegforgeError):
    """Scripted backend has no entry for a (file, question) pair: a test-authoring bug."""

    def __init__(self, file_hash: str, question: str):
        super().__init__(
            f"no scripted response for file_hash={file_hash} question={question!r}"
        )
        self.file_hash = file_hash
        self.question = question


class ProviderError(SegforgeError):
    """Live completion backend failed after retries."""


class ValidationError(SegforgeError):
    """A model response did not satisfy its declared answer shape."""


class SchemaError(SegforgeError):
    """A bundle or stored record violates its invariants."""


class OutputPathError(SegforgeError):
    """An output path falls outside the run directory."""


class BudgetTooSmallError(SegforgeError):
    """No full chunk fits within the requested context budget."""


class CoverageError(SegforgeError):
    """A gold-labelled filing or cell has no extracted bundle, or there are no cells."""


class BatchError(SegforgeError):
    """One or more requests in a batch failed; siblings ran to completion.

    ``completions`` maps input index -> Completion for successful requests,
    ``errors`` maps input index -> exception for failed ones.
    """

    def __init__(self, completions: dict, errors: dict):
        super().__init__(f"{len(errors)} of {len(completions) + len(errors)} requests failed")
        self.completions = completions
        self.errors = errors
