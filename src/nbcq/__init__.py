"""nbcq: post-training quantization error compensation.

Uniform affine quantization, closed-form blockwise compensation (plain
linear and transformed through bipolar logarithmic range compression), a
hold-out local search for the transform's threshold exponent, and a
desk-scale synthetic harness that exercises the outlier mechanisms end to
end. Names are imported from the submodules (``nbcq.harness``,
``nbcq.compensation``, ...); the package root defines only ``__version__``.
"""

__version__ = "0.1.0"
