"""From-scratch SGD training and the last-layer fine-tuning baseline.

Single-threaded on purpose: identical seeds give bit-identical weights.
Loss is softmax cross-entropy computed on the pre-softmax logits (networks
end in an explicit Softmax layer which the trainer peels off).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .layers import TRAINABLE_KINDS, Linear, Softmax, softmax_probs
from .network import Network, forward_upto


def _require_classifier(net):
    if not net.layers or net.layers[-1].kind != "softmax":
        raise ConfigError(f"network '{net.id}' must end in a softmax layer to be trained")
    return net.layers[:-1]


def loss_and_grads(layers, batch, labels):
    """Mean cross-entropy over a batch plus gradients for every trainable layer.

    Returns (loss, grads) where grads maps layer index -> {param: grad}.
    """
    caches = []
    x = batch
    for layer in layers:
        x, cache = layer.forward_cache(x)
        caches.append(cache)
    probs = softmax_probs(x)
    n = batch.shape[0]
    eps = 1e-300  # log(0) guard; never binds for finite logits
    loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    grads = {}
    first = next((i for i, l in enumerate(layers) if l.kind in TRAINABLE_KINDS), len(layers))
    for i in range(len(layers) - 1, first, -1):
        grad, layer_grads = layers[i].backward(grad, caches[i])
        if layer_grads:
            grads[i] = layer_grads
    if first < len(layers):
        # nothing below the first trainable layer needs a gradient, so its
        # input gradient (a GEMM and, for a conv, a col2im) is never formed
        _, grads[first] = layers[first].backward(grad, caches[first], input_grad=False)
    return loss, grads


class _SGD:
    """SGD with classical momentum: v = mu*v + g; w -= lr*v."""

    def __init__(self, lr, momentum):
        self.lr = lr
        self.momentum = momentum
        self.velocity = {}

    def step(self, layers, grads):
        for i, layer_grads in grads.items():
            params = layers[i].params()
            for name, g in layer_grads.items():
                key = (i, name)
                v = self.velocity.get(key)
                if v is None:
                    v = self.velocity[key] = np.zeros_like(g)
                v *= self.momentum  # in place: the roundings of mu*v + g
                v += g
                params[name] -= self.lr * v


def _epoch_batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_network(arch_spec, dataset, epochs, lr=0.001, momentum=0.9, batch_size=32, seed=0):
    """Train a network on a labeled dataset with momentum SGD.

    arch_spec is either an initialized Network (trained in-place on a copy)
    or a callable (rng, num_classes, input_shape) -> (layers, id). Defaults
    match the fine-tuning baseline (batch 32, lr 0.001, momentum 0.9);
    from-scratch desk runs want a larger lr. epochs=0 returns the initialized
    network untouched.
    """
    rng = np.random.default_rng(seed)
    if isinstance(arch_spec, Network):
        net = arch_spec.copy()
    else:
        layers, net_id = arch_spec(rng, dataset.num_classes, dataset.image_shape)
        net = Network(layers, dataset.image_shape, list(dataset.class_names), net_id)
    if net.output_shape != (dataset.num_classes,):
        raise ConfigError(
            f"architecture outputs {net.output_shape}, dataset has {dataset.num_classes} classes"
        )
    body = _require_classifier(net)
    opt = _SGD(lr, momentum)
    for epoch in range(epochs):
        losses = []
        for idx in _epoch_batches(len(dataset), batch_size, rng):
            try:
                loss, grads = loss_and_grads(body, dataset.images[idx], dataset.labels[idx])
            except NumericError as e:
                # exploded weights surface as non-finite activations
                raise NumericError(f"training diverged at epoch {epoch}: {e}") from e
            if not np.isfinite(loss):
                raise NumericError(f"training diverged (loss {loss}) at epoch {epoch}")
            opt.step(body, grads)
            losses.append(loss)
        net.train_trace.append(float(np.mean(losses)))
    return net


def _final_linear_index(net):
    tidx = net.trainable_indices
    if not tidx or net.layers[tidx[-1]].kind != "linear":
        raise ConfigError(f"network '{net.id}' does not end in a linear head")
    trailing = [l.kind for l in net.layers[tidx[-1] + 1 :]]
    if trailing not in ([], ["softmax"]):
        raise ConfigError(
            f"network '{net.id}' has layers {trailing} after its final linear head"
        )
    return tidx[-1]


def finetune_last_layer(
    network,
    dataset,
    samples_budget,
    lr=0.001,
    momentum=0.9,
    batch_size=32,
    seed=0,
    eval_dataset=None,
):
    """Replace the final linear layer and train only it on the dataset.

    Every other weight stays bit-identical. Returns the fine-tuned copy and
    the accuracy curve: (cumulative training samples processed, test accuracy)
    recorded at budget 0 and after every optimizer step. eval_dataset
    defaults to the training dataset.
    """
    if samples_budget < 0:
        raise ConfigError("samples_budget must be >= 0")
    rng = np.random.default_rng(seed)
    head_idx = _final_linear_index(network)
    old_head = network.layers[head_idx]
    k = dataset.num_classes
    in_features = old_head.in_features
    weight = rng.normal(0.0, np.sqrt(2.0 / in_features), (k, in_features))
    bias = np.zeros(k)

    layers = [l.copy() for l in network.layers]
    layers[head_idx] = Linear(weight, bias, old_head.name)
    if layers[-1].kind != "softmax":
        layers.append(Softmax())
    net = Network(layers, network.input_shape, list(dataset.class_names), network.id + "_ft")

    # frozen body: features only need computing once per split
    feats_train = forward_upto(net, head_idx, dataset.images)
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    feats_eval = forward_upto(net, head_idx, eval_ds.images)
    head = net.layers[head_idx]

    def eval_accuracy():
        logits = head.forward(feats_eval)
        preds = np.argmax(logits, axis=1)
        return float(np.mean(preds == eval_ds.labels))

    curve = [(0, eval_accuracy())]
    opt = _SGD(lr, momentum)
    processed = 0
    n = len(dataset)
    while processed < samples_budget:
        for idx in _epoch_batches(n, batch_size, rng):
            if processed >= samples_budget:
                break
            take = min(len(idx), samples_budget - processed)
            idx = idx[:take]
            loss, grads = loss_and_grads([head], feats_train[idx], dataset.labels[idx])
            if not np.isfinite(loss):
                raise NumericError(f"fine-tuning diverged after {processed} samples")
            opt.step([head], grads)
            processed += take
            curve.append((processed, eval_accuracy()))
    return net, curve
