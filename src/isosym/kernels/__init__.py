"""The chained products R^alpha of ``defect.nilpotency_residual``.

``pyref`` (pure numpy) is the one implementation, and ``gamma_products``
its one kernel; no defect sum uses it, since every sum nests over the
components instead.  Modules call ``kernels.active.<fn>`` rather than
importing the function, so a caller that wants to observe the kernel
layer (a profiler or tracer) can wrap this one binding.
"""

from . import pyref as active
