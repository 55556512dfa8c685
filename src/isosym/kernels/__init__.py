"""The chained products of the defect evaluations.

``pyref`` (pure numpy) is the one implementation, and ``gamma_products``
its one kernel.  Modules call ``kernels.active.<fn>`` rather than
importing the function, so a caller that wants to observe the kernel
layer (a profiler or tracer) can wrap this one binding.
"""

from . import pyref as active
