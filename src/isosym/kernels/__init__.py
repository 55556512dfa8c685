"""The chained products and weighted sandwich sums of the defect evaluations.

``pyref`` (pure numpy) is the one implementation.  Modules call
``kernels.active.<fn>`` rather than importing the functions, so a caller
that wants to observe the kernel layer (a profiler or tracer) can wrap
this one binding.
"""

from . import pyref as active
