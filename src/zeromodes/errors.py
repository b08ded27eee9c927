"""Exception hierarchy shared by all zeromodes modules."""


class ZeromodesError(Exception):
    """Base class for all errors raised by this package."""


# --- potential construction / classification ---

class NonMonotoneBreakpoints(ZeromodesError):
    """Breakpoint list is not strictly increasing."""


class LengthMismatch(ZeromodesError):
    """values must have exactly one entry less than breakpoints."""


class TrivialPotential(ZeromodesError):
    """Operation requires a potential that is not identically zero."""


class NotOneGap(ZeromodesError):
    """Potential does not have exactly one gap."""


class ZeroIntegral(ZeromodesError):
    """Gap shape ratio is undefined because the two block integrals cancel."""


class InfeasibleTriple(ZeromodesError):
    """Target triple violates the required strict ordering 0 < v < A < u."""


# --- angle propagation ---

class NonPositiveK(ZeromodesError):
    """Transverse frequency k must be positive."""


class StepUnderflow(ZeromodesError):
    """Adaptive integrator failed to advance; reports the position."""


# --- spectra ---

class ScanStepTooCoarse(ZeromodesError):
    """Real-axis scan kept missing crossings even after repeated halving."""


class WindingMismatch(ZeromodesError):
    """Subdivision lost or duplicated a root; counts do not reconcile."""


class BoundaryRoot(ZeromodesError):
    """A root sits (numerically) on the search rectangle boundary."""


# --- densities and zero counting ---

class OutOfDomain(ZeromodesError):
    """Parameters outside the domain of the requested closed form."""


class NotCoprime(ZeromodesError):
    """p and q must be coprime positive integers."""


class CriticalProduct(ZeromodesError):
    """alpha*beta == 1 is excluded from every density branch."""


class DegenerateEndpoint(ZeromodesError):
    """A lattice point hits the boundary of the counting window."""


class UnresolvedCell(ZeromodesError):
    """A near-tangential cell could not be classified reliably."""


class InsufficientRoots(ZeromodesError):
    """Too few located roots to fit a density slope."""


class UnknownExample(ZeromodesError):
    """Unknown canned scenario id."""
