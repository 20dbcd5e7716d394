"""Differentiable tensor core: the autodiff tape in ``tensor``, Adam in
``optim``."""

from .optim import Adam
