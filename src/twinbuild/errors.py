"""Exception types shared across the package."""

from __future__ import annotations


class TwinbuildError(Exception):
    """Base class for all package errors."""


class UnsupportedEntry(TwinbuildError):
    """Coxeter matrix entry outside the supported set {1,2,3,4,5,6,0}."""


class CapExceeded(TwinbuildError):
    """Enumeration produced more elements than the caller allowed."""


class UnsupportedQ(TwinbuildError):
    """Field size outside the supported range for a geometry generator."""


class NameClash(TwinbuildError):
    """Generator name sets of product factors are not disjoint."""


class NotInResidue(TwinbuildError):
    """A chamber or residue is not contained in the residue at hand."""


class PreconditionFailed(TwinbuildError):
    """A documented precondition of the operation does not hold."""


class NotParallel(TwinbuildError):
    """The two residues are not parallel."""


class NotEquivalent(TwinbuildError):
    """The two panels do not share a partner panel for the given element."""


class NotOpposite(TwinbuildError):
    """Panel does not meet the opposition set of the codistance."""


class NotConnected(TwinbuildError):
    """A chamber system, or a chamber subset, is not gallery-connected."""


class FormatError(TwinbuildError):
    """Malformed or unsupported input file."""
