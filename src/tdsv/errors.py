"""Exception types shared across the toolkit."""


class TdsvError(Exception):
    """Base class for all toolkit errors."""


class AudioFormatError(TdsvError):
    """Malformed RIFF/WAVE file."""


class UnsupportedAudioError(AudioFormatError):
    """Valid WAV but not PCM-16 mono."""


class TooShortError(TdsvError):
    """Signal shorter than one analysis window."""


class DimensionError(TdsvError):
    """Tensor shapes do not line up."""


class NumericalError(TdsvError):
    """Non-finite value where a finite one is required."""


class UninitializedStatsError(TdsvError):
    """Batch-norm inference requested before any training update."""


class InsufficientDataError(TdsvError):
    """Not enough speakers or utterances to fit a backend artifact."""


class DegenerateError(TdsvError):
    """Degenerate input: zero-norm vector, zero-variance cohort, single-class labels."""


class IterationLimitError(TdsvError):
    """Iterative fit did not converge within the iteration budget."""


class RankDeficiencyError(TdsvError):
    """Data matrix has lower rank than the requested projection."""


class TensorFormatError(TdsvError):
    """Malformed binary tensor container or manifest."""


class ConfigError(TdsvError):
    """Bad configuration file or option value."""


class TrialFormatError(TdsvError):
    """Malformed trial, score, corpus, enrollment, or embedding table."""


class TableNumberError(TrialFormatError, ValueError):
    """Unparsable score or embedding component in a table."""


class UnknownIdError(TdsvError, KeyError):
    """A model, utterance, phrase or preset id that the inputs do not define."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr
