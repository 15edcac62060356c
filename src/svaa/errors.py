"""Exception types shared across the analytics modules."""


class AnalyticsError(Exception):
    """Base class for every error raised by this package."""


class MalformedLine(AnalyticsError):
    """A record line is not parseable into the detection schema."""


class InvalidTimestamp(AnalyticsError):
    """A timestamp string is not valid RFC 3339."""


class InvalidBBox(AnalyticsError):
    """A bounding box has nonpositive extent or negative origin."""


class InvertedRange(AnalyticsError):
    """A time range was given with t0 > t1."""


class RangeTooLong(AnalyticsError):
    """A time range holds more windows, buckets or hour cells than one query may hold."""


class GridTooLarge(AnalyticsError):
    """A heatmap grid would hold more cells than one render may."""


class StoreUnwritable(AnalyticsError):
    """The record store directory cannot be created or appended to."""


class OutputUnwritable(AnalyticsError):
    """An output file of a command cannot be written."""


class StoreLocked(AnalyticsError):
    """Another handle holds the record store's writer lock."""


class EmptyHistory(AnalyticsError):
    """A percentile was requested over an empty history."""


class UnknownCamera(AnalyticsError):
    """A camera id is not present in the configuration."""


class UnknownLocation(AnalyticsError):
    """A location label is not present in the configuration."""


class CameraMismatch(AnalyticsError):
    """A record was projected with the wrong camera's configuration."""


class InvalidConfig(AnalyticsError):
    """A camera or application configuration violates its invariants."""


class InvalidProfile(AnalyticsError):
    """A simulation profile violates its invariants."""


class EmptyInput(AnalyticsError):
    """An operation that derives its extent from data received no data."""
