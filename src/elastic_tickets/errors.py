"""Exception types shared across the package."""


class ElasticTicketsError(Exception):
    """Base class for all package errors."""


class ShapeError(ElasticTicketsError, ValueError):
    """Tensor/parameter shapes disagree."""


class ConfigError(ElasticTicketsError, ValueError):
    """Invalid configuration value or unknown key/substream."""


class DomainError(ElasticTicketsError, ValueError):
    """Numeric argument outside its allowed domain (e.g. sparsity >= 1)."""


class UsageError(ElasticTicketsError, RuntimeError):
    """API called in an unsupported way (e.g. backward on an eval cache)."""


class IncompatibilityError(ElasticTicketsError, ValueError):
    """Source and target architectures violate a transform invariant."""


class TicketLoadError(ElasticTicketsError, ValueError):
    """Base class for ticket deserialization failures."""


class TicketBadMagic(TicketLoadError):
    pass


class TicketBadVersion(TicketLoadError):
    pass


class TicketTruncated(TicketLoadError):
    pass


class TicketBadChecksum(TicketLoadError):
    pass


class TicketInvalid(TicketLoadError):
    """The file decodes, but its ticket fails ``ticket.check_ticket``."""


class DataParseError(ElasticTicketsError, ValueError):
    """Base class for dataset file parsing failures."""


class DataBadMagic(DataParseError):
    pass


class DataTruncated(DataParseError):
    pass


class DataCountMismatch(DataParseError):
    pass


class DataRecordMisaligned(DataParseError):
    pass
