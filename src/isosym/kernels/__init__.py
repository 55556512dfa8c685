"""The Gram step of ``defect.nilpotency_residuals``, the one kernel.

Modules call ``kernels.active.gram_step``, the one binding a profiler or
tracer wraps to observe the kernel layer.
"""

from . import pyref as active
