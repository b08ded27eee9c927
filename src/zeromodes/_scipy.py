"""The package's only way to scipy: each function imports scipy on its first
call, so only the paths that call them load it (synthesize_one_gap and
perturbed trig scans).  Callers bind these names at module level, where
they stay wrappable and patchable by name."""


def brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    from scipy.optimize import minimize_scalar
    return minimize_scalar(*args, **kwargs)
