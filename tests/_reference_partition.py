"""The partition fit's plain full-width loop, for tests only.

``fit_partition`` as it was before it folded repeated columns: every sum
over t runs over all T columns, and a random K x T H is drawn before an
anchored start overwrites it.  The tests compare the folding fit with it:
bit for bit where nothing is folded, and to rounding where columns are.
"""

import numpy as np
from scipy import special

from qreadout.partition import EPS, PartitionTensors


def reference_partition(S, K, max_iters=200, tol=1e-7, seed=0,
                        init_bases=None, init_activations=None):
    S = np.asarray(S, dtype=float)
    M, T = S.shape
    rng = np.random.default_rng(seed)
    scale = np.sqrt(S.mean() + EPS)
    R = rng.uniform(0.5, 1.5, size=(M, 1, M)) * scale
    E = rng.uniform(0.5, 1.5, size=(M, K)) * scale
    H = rng.uniform(0.5, 1.5, size=(1, K, T)) * scale
    if init_bases is not None:
        E = np.maximum(np.abs(np.asarray(init_bases, dtype=float)), EPS)
        R = np.full((M, 1, M), EPS)
        R[np.arange(M), 0, np.arange(M)] = 1.0
    if init_activations is not None:
        H = np.maximum(np.asarray(init_activations, dtype=float), EPS).reshape(1, K, T)

    def model_matrix():
        return np.maximum(np.einsum("iam,ik,akt->mt", R, E, H), EPS)

    def kl_cost(lam):
        return float(np.sum(special.xlogy(S, S / lam) - S + lam))

    mass = max(float(S.sum()), EPS)
    trace = [kl_cost(model_matrix())]
    converged = False
    for _ in range(max_iters):
        lam = model_matrix()
        ratio = S / lam
        num = np.einsum("ik,akt,mt->iam", E, H, ratio)
        den = np.maximum(np.einsum("ik,akt->ia", E, H), EPS)[:, :, None]
        R = R * num / den

        lam = model_matrix()
        ratio = S / lam
        num = np.einsum("iam,akt,mt->ik", R, H, ratio)
        den = np.maximum(
            R.sum(axis=(1, 2))[:, None] * H[0].sum(axis=1)[None, :], EPS
        )
        E = E * num / den

        lam = model_matrix()
        ratio = S / lam
        num = np.einsum("iam,ik,mt->akt", R, E, ratio)
        den = np.maximum(np.einsum("iam,ik->ak", R, E), EPS)[:, :, None]
        H = H * num / den

        cost = kl_cost(model_matrix())
        trace.append(cost)
        rel = abs(trace[-2] - cost) / max(abs(trace[-2]), mass)
        if rel < tol:
            converged = True
            break

    return PartitionTensors(
        R=R, E=E, H=H, converged=converged,
        iterations=len(trace) - 1, cost_trace=tuple(trace),
    )
