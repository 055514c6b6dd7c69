"""Exception hierarchy.

Two families matter to callers: ValidationError (bad input, CLI exit
code 2) and NumericalError (a solve failed, CLI exit code 3).  Every
subclass carries a stable machine-readable ``code``, its class name,
used as the stderr prefix.
"""


class AdveigError(Exception):
    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __str__(self):
        msg = super().__str__()
        return msg if msg else self.code


class ValidationError(AdveigError): pass
class NumericalError(AdveigError): pass


# -- profile -----------------------------------------------------------

class MalformedSpec(ValidationError): pass
class GloballyConstant(ValidationError): pass
class OutOfDomain(ValidationError): pass
class UnknownTemplate(ValidationError): pass
class BadParams(ValidationError): pass


class NotC2(ValidationError):
    def __init__(self, knot, order, mismatch):
        super().__init__(
            f"derivative order {order} jumps by {mismatch:.3e} at knot {knot}")
        self.knot = knot
        self.order = order
        self.mismatch = mismatch


class SignMismatch(ValidationError):
    def __init__(self, segment, declared, verified):
        super().__init__(
            f"segment {segment}: declared '{declared}' but derivative is '{verified}'")
        self.segment = segment
        self.declared = declared
        self.verified = verified


# -- spectral ----------------------------------------------------------

class NonFinite(NumericalError): pass


class NoConvergence(NumericalError):
    def __init__(self, max_iterations, detail=""):
        super().__init__(f"no convergence after {max_iterations} iterations"
                         + (f" ({detail})" if detail else ""))
        self.max_iterations = max_iterations


# -- assembly ----------------------------------------------------------

class NotPeriodic(ValidationError): pass


class GridTooCoarse(ValidationError):
    def __init__(self, h, drift, layer):
        super().__init__(
            f"layers unresolved at h={h:.3e}: end-cell |s dm| = {drift:.3f} "
            f"(limit 0.5), h sqrt(s max|m'|) = {layer:.3f} (limit 1)")
        self.h = h
        self.drift = drift
        self.layer = layer


# -- predictor ---------------------------------------------------------

class PreconditionViolated(ValidationError): pass


# -- lab ---------------------------------------------------------------

class InsufficientData(ValidationError): pass
class NonPositiveLambda(ValidationError): pass
class IntervalOutOfDomain(ValidationError): pass
class MassTooSmall(ValidationError): pass
class KStarUndefined(ValidationError): pass
class NoOverlap(ValidationError): pass
class NoDecay(NumericalError): pass


# -- cli ---------------------------------------------------------------

class UnwritableOutput(ValidationError): pass
