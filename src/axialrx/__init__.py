"""OFDM link-level simulator and attention-based neural receivers.

Subpackages cover a float64/float32 autodiff tensor core (training in
float64, evaluation forwards in float32), receiver architectures
(axial attention, global multi-head self-attention, convolutional ResNet),
a classical LS-LMMSE baseline, a tapped-delay-line fading channel, LDPC
coding, FLOP accounting, and a training/evaluation driver with a CLI.
"""

import os

# The workloads here are many small matrix products (float64 in training,
# float32 in evaluation forwards); multithreaded BLAS slows them down badly
# and risks run-to-run variation. Best effort: only takes hold if numpy has
# not been imported yet in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var, os

__version__ = "0.1.0"
