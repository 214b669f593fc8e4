"""Exception types shared across the toolkit."""


class CharnmtError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(CharnmtError):
    """Tensor shapes do not conform for the requested operation."""


class DomainError(CharnmtError):
    """Input outside the mathematical domain of an operation (e.g. empty softmax)."""


class ContractError(CharnmtError):
    """A caller violated an operation's precondition."""


class NonFiniteError(CharnmtError):
    """A training loss or gradient norm is NaN or Inf; the trainer raises
    it before that step's update reaches the parameters."""


class ConfigError(CharnmtError):
    """Invalid or inconsistent configuration value."""


class VocabularyError(CharnmtError):
    """Symbol index outside the vocabulary."""


class CorpusError(CharnmtError):
    """Corpus files malformed or misaligned."""


class EnsembleError(CharnmtError):
    """Ensemble members are not mutually compatible."""


class ConsistencyError(CharnmtError):
    """Checkpoint, vocabulary, or merge artifacts do not belong together."""


class IntegrityError(CharnmtError):
    """Checkpoint container damaged or self-inconsistent."""
