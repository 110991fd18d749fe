"""Problem-file texts the tests load, and a checked way to vary them."""

# The focal kernel with every parameter zero, so T maps everything to 0.
ZERO_PROBLEM = """\
[kernel]
name = focal
[gamma]
gamma1 = 1
gamma2 = t
[functionals]
h1 = U(1)
h2 = DU(0)
[nonlinearity]
f = u
[parameters]
lambda = 0
eta1 = 0
eta2 = 0
"""

# A custom kernel with declared bounds: its trapezoid K = K* =
# 0.33333587646484375 exceeds the exact 1/3, so the lower test passes at
# r = 0.1000003 although the exact lower branch is 0.1 < r.
QUADRATURE_PROBLEM = """\
[kernel]
k = t*s^2
[gamma]
gamma1 = 1
gamma2 = t
[functionals]
h1 = U(1)
h2 = U(1)
[nonlinearity]
f = 1
[parameters]
lambda = 3/10
eta1 = 0
eta2 = 0
[bounds]
f_upper = 1
f_lower = 1
h1 = rho
h2 = rho
"""


def edited(text: str, *edits: tuple[str, str]) -> str:
    """text with each (old, new) replacement made in turn; every old must
    occur exactly once, so a stale edit fails instead of doing nothing."""
    for old, new in edits:
        assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times"
        text = text.replace(old, new)
    return text
