"""Per-op micro-benchmark of the autodiff ops that make up a critic step.

Shapes are those of the ``quickstart`` critic step: gradient-penalty points
are 3 x 64 rows (interpolates plus both endpoints) of 8 features, the critic
is (8, 64, 64, 1), and the classifier logits are 64 x 3.

``fwd_us`` is the time of one op call on a recording tape.  ``vjp_us`` is the
time of a first-order ``backward`` through the op minus that of the same
``backward`` without the op; both reduce a non-scalar output with ``sum``.
Each figure is the median over several batches of calls, in microseconds.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 7
CALLS = 200


def _per_call_us(fn, reset) -> float:
    samples = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        for _ in range(CALLS):
            fn()
            reset()
        samples.append((time.perf_counter() - t) / CALLS * 1e6)
    return statistics.median(samples)


def run() -> dict[str, float]:
    from mdda import autodiff
    from mdda.autodiff import Tape, backward, matmul, softmax_cross_entropy

    rows, width, feats = 192, 64, 8
    values = np.linspace(-1.0, 1.0, rows * width).reshape(rows, width)
    labels = np.arange(64) % 3
    # name -> (input arrays, op on the input leaves)
    cases = {
        "transpose": ([values[:width, :feats]], lambda a: a.transpose()),
        "matmul": ([values[:, :feats], values[:feats, :]], lambda a, b: matmul(a, b)),
        "reshape": ([values[0]], lambda a: a.reshape((1, width))),
        "add": ([values, values[::-1]], lambda a, b: a + b),
        "leaky_relu": ([values], lambda a: a.leaky_relu(0.2)),
        "step_mask": ([values], lambda a: autodiff._step_mask(a, 0.2)),
        "mul": ([values, values[::-1]], lambda a, b: a * b),
        "square": ([values[:, :feats]], lambda a: a.square()),
        "sqrt": ([values[:, :1] + 2.0], lambda a: a.sqrt()),
        "sub": ([values[:, :1]], lambda a: a - 1.0),
        "mean": ([values[:, :1]], lambda a: a.mean()),
        "sum": ([values[:, :1]], lambda a: a.sum()),
        "softmax_xent": ([values[:64, :3]], lambda a: softmax_cross_entropy(a, labels)),
    }
    out = {}
    for name, (arrays, op) in cases.items():
        tape = Tape()
        leaves = [tape.leaf(a) for a in arrays]
        mark = tape.mark()
        out[f"op.{name}.fwd_us"] = _per_call_us(lambda: op(*leaves), lambda: tape.reset(mark))
        if name == "step_mask":
            continue  # zero derivative: no VJP rule
        y = op(*leaves)
        loss = y if y.value.size == 1 else y.sum()
        with_op = _per_call_us(lambda: backward(loss, leaves), lambda: None)
        tape.reset(mark)
        base = tape.leaf(y.value)
        base_loss = base if base.value.size == 1 else base.sum()
        without_op = _per_call_us(lambda: backward(base_loss, [base]), lambda: None)
        out[f"op.{name}.vjp_us"] = with_op - without_op
    return out
