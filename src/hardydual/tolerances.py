"""Numerical tolerances shared by every module."""

TOL_UNIT = 1e-12        # slack on |R| <= 1 (contractivity)
TOL_TOUCH = 1e-12       # 1 - |R| below this counts as touching the circle
TOL_BLASCHKE = 1e-6     # mass pairs at a pseudo-hyperbolic separation below this
                        # are refused
TOL_PSD = 1e-12         # Gram matrices must be PD with at least this margin,
                        # or their roundoff order * eps * max diag if larger
TOL_ORDER = 1e-10       # sandwich inequality margin
