"""Central finite-difference gradient oracle, independent of the tape.

Evaluates the loss function itself (which may use the library forward pass)
but derives gradients purely by perturbing stored parameters, so it never
relies on the backward implementation it is used to check.
"""

import numpy as np

FD_STEP = 1e-5
REL_TOL = 1e-4
REL_FLOOR = 1e-3  # components below this magnitude are checked absolutely


def finite_difference_grads(loss_fn, store, eps=FD_STEP):
    """d loss / d p for every parameter, by central differences."""
    grads = {}
    for name in [n for n, _ in store.items()]:
        base = store[name].data.copy()
        g = np.zeros_like(base, dtype=np.float64)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            store.assign(name, base)
            f_plus = loss_fn()
            flat[i] = orig - eps
            store.assign(name, base)
            f_minus = loss_fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * eps)
        store.assign(name, base)
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric):
    """Worst elementwise relative error across all parameters."""
    worst = 0.0
    worst_name = None
    for name, fd in numeric.items():
        a = np.asarray(analytic[name].data, dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), REL_FLOOR)
        err = np.abs(a - fd) / denom
        peak = float(err.max()) if err.size else 0.0
        if peak > worst:
            worst, worst_name = peak, name
    return worst, worst_name


def assert_grads_close(analytic, numeric, tol=REL_TOL):
    worst, name = max_relative_error(analytic, numeric)
    assert worst < tol, f"gradient mismatch on {name}: rel err {worst:.3e} >= {tol}"
