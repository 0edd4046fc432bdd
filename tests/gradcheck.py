"""Finite-difference oracle for the hand-derived gradients of `coldrec.nn`."""

import numpy as np

from coldrec.nn import NetworkSpec, cosine_loss, net_backward, net_forward


def gradient_check(net: NetworkSpec, params, inputs, target, h: float = 1e-5,
                   seed: int = 0, samples_per_tensor: int = 5,
                   check_seed: int = 12345) -> float:
    """Max relative error between analytic and central-difference gradients.

    The forward seed is fixed, so dropout masks are frozen across the
    perturbed evaluations.
    """
    def loss_at() -> float:
        out, _, _ = net_forward(net, params, inputs, mode="train", seed=seed)
        return cosine_loss(out, target)[0]

    out, caches, _ = net_forward(net, params, inputs, mode="train", seed=seed)
    _, dpred = cosine_loss(out, target)
    grads = net_backward(net, params, caches, dpred)

    rng = np.random.default_rng(check_seed)
    worst = 0.0
    for layer in sorted(grads):
        for key in sorted(grads[layer]):
            tensor = params[layer][key]
            flat = tensor.reshape(-1)
            # a dense weight gradient is factored (nn.FactoredGrad); asarray forms it
            grad = np.asarray(grads[layer][key]).reshape(-1)
            n = flat.size
            coords = rng.choice(n, size=min(samples_per_tensor, n), replace=False)
            for c in coords:
                orig = flat[c]
                flat[c] = orig + h
                up = loss_at()
                flat[c] = orig - h
                down = loss_at()
                flat[c] = orig
                numeric = (up - down) / (2 * h)
                analytic = grad[c]
                denom = max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic - numeric) / denom)
    return worst
