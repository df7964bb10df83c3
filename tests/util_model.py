"""Shared model-level helpers for the test suite."""

import hashlib

import numpy as np

from patchmoe import backbone, moe, training
from patchmoe import tensor as T
from util_fd import assert_grads_close


def toy_config(**overrides):
    base = dict(num_classes=3, image_size=8, patch_size=4,
                d_model=8, d_ff=16, layers=2, dropout=0.0)
    base.update(overrides)
    return backbone.ModelConfig(**base)


def stacked_block(router, experts, source_hash=None):
    """A moe.MoEBlock whose expert e holds the arrays of experts[e], a dict
    keyed by moe.EXPERT_WEIGHTS names."""
    return moe.MoEBlock(router, **{
        k: T.parameter(np.stack([np.asarray(ex[k], dtype=np.float64) for ex in experts]))
        for k in moe.EXPERT_WEIGHTS}, source_hash=source_hash)


def model_loss(model, images, labels):
    """Mean cross-entropy on hard labels, eval mode."""
    logits = model.forward(images).logits
    return training.soft_cross_entropy(
        logits, training.one_hot(np.asarray(labels), model.config.num_classes))


def assert_param_grads(loss_fn, named_tensors, rtol=1e-4, h=1e-5):
    """Analytic gradients of loss_fn() w.r.t. each named Tensor vs central
    finite differences obtained by perturbing the tensors' arrays in place.
    Caller is responsible for running in float64."""
    loss = loss_fn()
    loss.backward()
    for name, t in named_tensors.items():
        base = t.data
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        nflat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = loss_fn().item()
            flat[j] = orig - h
            fm = loss_fn().item()
            flat[j] = orig
            nflat[j] = (fp - fm) / (2 * h)
        assert t.grad is not None, f"no gradient reached {name}"
        assert_grads_close(t.grad, numeric, rtol=rtol, label=name)


def check_model_gradients(seed, config=None, rtol=1e-4, h=1e-5, batch=1):
    """Full-model analytic vs finite-difference gradients, float64."""
    T.set_default_dtype("float64")
    try:
        cfg = config or toy_config()
        model = backbone.Model(cfg, T.Rng(seed))
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 256, (batch, cfg.image_size, cfg.image_size, 3),
                              dtype=np.uint8)
        labels = rng.integers(0, cfg.num_classes, batch)
        assert_param_grads(lambda: model_loss(model, images, labels),
                           model.named_parameters(), rtol=rtol, h=h)
    finally:
        T.set_default_dtype("float32")


def model_digest(model, images, labels, rng):
    """sha256 over the train-mode logits and every parameter's gradient, in
    named_parameters order: two code paths that agree on it agree bit for
    bit. Clears the parameter gradients before and after."""
    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    logits = model.forward(images, train=True, rng=rng).logits
    loss = training.soft_cross_entropy(
        logits, training.one_hot(np.asarray(labels), model.config.num_classes))
    loss.backward()
    h = hashlib.sha256(logits.data.tobytes())
    for name, p in params.items():
        h.update(name.encode())
        h.update(b"-" if p.grad is None else p.grad.tobytes())
        p.grad = None
    return h.hexdigest()
