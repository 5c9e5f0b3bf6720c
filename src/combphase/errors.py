"""Exception types shared across the package."""


class CombPhaseError(Exception):
    """Base class for all package-specific errors."""


class IntegrationError(CombPhaseError):
    """Time integration failed to converge to the requested tolerance."""


class UndefinedPhaseError(CombPhaseError):
    """Phase extraction attempted on a (nearly) diagonal unitary."""


class OverlapError(CombPhaseError):
    """Pulse arrangement would make electric fields overlap in time."""


class SingularInformationError(CombPhaseError):
    """Fisher information is singular at the requested parameter point."""


class DegenerateFitError(CombPhaseError):
    """Likelihood surface is flat; the parameters are not identifiable."""


class WrapAmbiguityError(CombPhaseError):
    """Accumulated phase exceeds the unambiguous window of the protocol."""


class ScenarioConfigError(CombPhaseError):
    """Scenario configuration failed schema validation."""
