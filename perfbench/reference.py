"""A fixed reference computation that times the host, not the library.

The benchmark's host is a shared virtual machine whose speed drifts by up
to 2x, in spells from under a second to minutes.  A run that falls into a
slow spell reads slow however its samples are summarised.  So the runner
times this computation before and after every operation, and scales the
operation's time by ``REF_SECONDS`` over the mean of the two reference
times beside it: the operation's time at the host speed at which the
reference takes ``REF_SECONDS``.

The reference never calls ``angen``, so a change to the library moves the
scaled times exactly as it moves the raw ones.  It mixes, in about equal
shares of time, the kinds of work the library does: an interpreted loop,
ufuncs on short arrays, small SVDs and dense 128-dim eigensolves.
"""

import time

import numpy as np

# nominal seconds, near the reference's median on the 2-vCPU x86-64 host the
# benchmark was tuned on, with one BLAS thread
REF_SECONDS = 0.008

_X = np.linspace(0.0, 1.0, 64)
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4, 4)) * (1.0 + 1.0j)
_B = _rng.standard_normal((128, 128))
_B = _B + _B.T


def _work() -> float:
    s = 0
    for i in range(25000):
        s += i * i % 7
    acc = float(s)
    for i in range(200):
        acc += float(np.sum(np.exp(-_X * i) * np.cos(_X)))
    for _ in range(170):
        acc += float(np.linalg.svd(_A, compute_uv=False)[0])
    for _ in range(2):
        acc += float(np.linalg.eigvalsh(_B)[-1])
    return acc


def reference() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference timings into
    a time at reference speed."""
    return REF_SECONDS / (0.5 * (before + after))
