"""Exception hierarchy.

Two families matter to callers: ValidationError (bad input, CLI exit
code 2) and NumericalError (a solve failed, CLI exit code 3).  Every
concrete class carries a stable machine-readable ``code`` used as the
stderr prefix.
"""


class AdveigError(Exception):
    code = "Error"

    def __str__(self):
        msg = super().__str__()
        return msg if msg else self.code


class ValidationError(AdveigError):
    code = "ValidationError"


class NumericalError(AdveigError):
    code = "NumericalError"


# -- profile -----------------------------------------------------------

class MalformedSpec(ValidationError):
    code = "MalformedSpec"


class NotC2(ValidationError):
    code = "NotC2"

    def __init__(self, knot, order, mismatch):
        super().__init__(
            f"derivative order {order} jumps by {mismatch:.3e} at knot {knot}")
        self.knot = knot
        self.order = order
        self.mismatch = mismatch


class SignMismatch(ValidationError):
    code = "SignMismatch"

    def __init__(self, segment, declared, verified):
        super().__init__(
            f"segment {segment}: declared '{declared}' but derivative is '{verified}'")
        self.segment = segment
        self.declared = declared
        self.verified = verified


class GloballyConstant(ValidationError):
    code = "GloballyConstant"


class OutOfDomain(ValidationError):
    code = "OutOfDomain"


class UnknownTemplate(ValidationError):
    code = "UnknownTemplate"


class BadParams(ValidationError):
    code = "BadParams"


# -- maxset ------------------------------------------------------------

class AtSegmentJunction(ValidationError):
    code = "AtSegmentJunction"


class NotAMaximum(ValidationError):
    code = "NotAMaximum"


# -- spectral ----------------------------------------------------------

class NoConvergence(NumericalError):
    code = "NoConvergence"

    def __init__(self, max_iterations, detail=""):
        super().__init__(f"no convergence after {max_iterations} iterations"
                         + (f" ({detail})" if detail else ""))
        self.max_iterations = max_iterations


class NonFinite(NumericalError):
    code = "NonFinite"


# -- assembly ----------------------------------------------------------

class GridTooCoarse(ValidationError):
    code = "GridTooCoarse"

    def __init__(self, h, drift, layer):
        super().__init__(
            f"layers unresolved at h={h:.3e}: end-cell |s dm| = {drift:.3f} "
            f"(limit 0.5), h sqrt(s max|m'|) = {layer:.3f} (limit 1)")
        self.h = h
        self.drift = drift
        self.layer = layer


class NotPeriodic(ValidationError):
    code = "NotPeriodic"


# -- predictor ---------------------------------------------------------

class PreconditionViolated(ValidationError):
    code = "PreconditionViolated"


class BoundaryClassPresent(ValidationError):
    code = "BoundaryClassPresent"


# -- lab ---------------------------------------------------------------

class InsufficientData(ValidationError):
    code = "InsufficientData"


class NonPositiveLambda(ValidationError):
    code = "NonPositiveLambda"


class IntervalOutOfDomain(ValidationError):
    code = "IntervalOutOfDomain"


class MassTooSmall(ValidationError):
    code = "MassTooSmall"


class KStarUndefined(ValidationError):
    code = "KStarUndefined"


class NoDecay(NumericalError):
    code = "NoDecay"


class NoOverlap(ValidationError):
    code = "NoOverlap"
