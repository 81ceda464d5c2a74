"""Exceptions shared across the index, engine, and cluster layers."""


class RangemonError(Exception):
    pass


class OutOfDomainError(RangemonError):
    """A point falls outside the indexed domain (or a tree's root bounds)."""


class DuplicateObjectError(RangemonError):
    """An object id is inserted twice without an intervening removal."""


class ObjectNotFoundError(RangemonError):
    """A removal or move names an object id that is not present."""


class NoIntersectionError(RangemonError):
    """A query is registered against a region its circle does not touch."""


class InconsistentUpdateError(RangemonError):
    """An object update claims a previous position that was never recorded."""


class StateMismatchError(RangemonError):
    """A query-list transition disagrees with the recorded membership."""


class UnexpectedPartialError(RangemonError):
    """A partial result arrived from an index worker the query was not sent to."""


class DuplicatePartialError(RangemonError):
    """A second partial result arrived from the same index worker for a query."""


class TransportError(RangemonError):
    """A message could not be delivered; carries the failing edge."""
