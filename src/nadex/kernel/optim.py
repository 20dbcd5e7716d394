"""Adam with bias correction over a named parameter set.

State (first/second moments, step counter) is keyed by parameter name so it
can round-trip through checkpoints. Each update runs in place on the
parameter and its moment buffers.
"""

import numpy as np

from ..errors import NumericsError


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        """``params``: dict name -> Tensor (insertion order is update order)."""
        self.params = params
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self):
        """Apply one update from the gradients currently on the parameters.

        Parameters whose grad is None are treated as zero-gradient: their
        values stay put while the moment estimates decay.
        """
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is not None and not np.all(np.isfinite(g)):
                raise NumericsError(f"non-finite gradient for parameter '{name}'")
            if g is None:
                g = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def state_arrays(self):
        """Flat name -> array view of the optimizer state, for checkpoints."""
        out = {}
        for name in self.params:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays, step_count):
        # copy: moments are updated in place, the source dict must not alias
        for name in self.params:
            self.m[name] = np.array(arrays[f"adam.m.{name}"], dtype=np.float64)
            self.v[name] = np.array(arrays[f"adam.v.{name}"], dtype=np.float64)
        self.step_count = int(step_count)
