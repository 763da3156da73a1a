"""Finite-difference gradient checking of the autodiff ops and losses.

Shared by the unit tests, the op cases and the acceptance suite.
"""

from dataclasses import dataclass, field

import numpy as np

from maie.autodiff import Value, backward


@dataclass
class GradCheckReport:
    """Max relative error per checked input, |analytic-numeric|/max(1,|analytic|)."""

    per_input: list = field(default_factory=list)
    max_rel_err: float = 0.0
    rel_tol: float = 1e-4

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.rel_tol


def _eval_scalar(f, inputs, which: int) -> float:
    out = f(inputs)
    val = float(out.data if isinstance(out, Value) else out)
    if not np.isfinite(val):
        raise ArithmeticError(f"grad_check: non-finite value while perturbing input {which}")
    return val


def grad_check(f, inputs, step: float = 1e-5, rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare backward() gradients of a scalar function against central differences.

    ``f`` maps a list of Values to a scalar Value and must be deterministic.
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")
    leaves = [Value(np.asarray(x.data if isinstance(x, Value) else x, dtype=np.float64).copy(), requires_grad=True) for x in inputs]
    loss = f(leaves)
    if not np.isfinite(loss.data).all():
        raise ArithmeticError("grad_check: non-finite value in unperturbed evaluation (input -1)")
    backward(loss)
    analytic = [leaf.grad.copy() for leaf in leaves]

    frozen = [Value(leaf.data) for leaf in leaves]
    report = GradCheckReport(rel_tol=rel_tol)
    for i, leaf in enumerate(frozen):
        num = np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        nflat = num.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = _eval_scalar(f, frozen, i)
            flat[j] = orig - step
            lo = _eval_scalar(f, frozen, i)
            flat[j] = orig
            nflat[j] = (hi - lo) / (2.0 * step)
        err = np.abs(analytic[i] - num) / np.maximum(1.0, np.abs(analytic[i]))
        worst = float(err.max()) if err.size else 0.0
        report.per_input.append(worst)
        report.max_rel_err = max(report.max_rel_err, worst)
    return report
