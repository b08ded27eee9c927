"""The package's only way to scipy: each function imports scipy on its first
call, so step-potential paths never load it.  Callers bind these names at
module level, where they stay wrappable and patchable by name."""


def quad(*args, **kwargs):
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    from scipy.optimize import minimize_scalar
    return minimize_scalar(*args, **kwargs)
