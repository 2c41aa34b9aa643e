"""Central finite-difference verification of every analytic gradient.

The numeric side never touches the backward implementations: it re-runs the
forward pass with scalars nudged by +/-h and differences the losses. Each
nudged copy moves one scalar, but copies that differ only in what the batch
axis carries share one forward. An op input that carries the batch axis is
nudged in 2 * size copies at once: stacked on axis 0, they run as one call
of the op, and each copy's loss is read from its own slice of the output.
A weight or a bias, which every image shares, is nudged one scalar per
forward.
One analytic forward keeps the graph for ``backward``; for the numeric
forwards every checked leaf has ``requires_grad`` switched off (and restored
afterwards), so they record no graph and keep nothing for a backward pass.
Their values, stacked or not, are bit for bit those of the graph forward.
Every check takes the worst relative error over all its coordinates in one
array expression, ``_max_error``. The end-to-end check reads every analytic
value from one backward of the full neck and routes each numeric one:
parameters no head graph reaches through the full neck, and head
parameters through the head alone over a fixed, detached pyramid, re-running
only the SCE branch that reads them. Each nudged copy of an SCE branch pick
re-runs its branch alone; then the copies of ``_STACK_PICKS`` picks run the
rest of the head as one batch, whose ops (``linear`` too) compute every
image on its own. An attention parameter, which a stack would share, is
nudged one head run at a time. A non-finite gradient at any pick makes the
error non-finite, which fails.
Double precision is required; with h = ``DEFAULT_STEP`` = 1e-6 the
truncation and roundoff floors sit far below the 1e-4 acceptance threshold.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .backbone import synthetic_backbone
from .errors import ConfigError
from .neck import BackbonePyramid, NeckConfig, NeckParams, PyramidOutputs, _add_context, \
    _attend, _pyramid_mean, _sce_global, _sce_local, _sce_sum, _sce_wide, cefpn_forward, \
    head_stage, init_neck_params, pixel_shuffle, pixel_unshuffle, pyramid_stage
from .ops import ConvSpec, LinearSpec, conv2d, global_avg_pool, global_max_pool, \
    interpolate_nearest, linear, max_pool2d
from .tensor import GradTape, Tensor, _wrap, add, backward, broadcast_spatial, channel_slice, \
    mul, mul_channelwise, relu, scale, sigmoid, squeeze_spatial, sum_all

DEFAULT_STEP = 1e-6
DEFAULT_THRESHOLD = 1e-4
_REL_FLOOR = 1e-6
# Head picks of one SCE branch per stacked head run in the end-to-end check.
# Their 2 * 4 nudged copies stay below the peak of the full neck's backward;
# at 8 picks the check's desk-scale peak rose 29% (tracemalloc, seed 1).
_STACK_PICKS = 4

# Central differences carry absolute roundoff of roughly ulp(loss) / h
# (~1e-10 * |loss| at h = DEFAULT_STEP). Gradient components below that
# cannot be resolved relatively, so the error denominator is floored at
# 1e-4 * |loss|: two orders above the noise, while a missing or mis-scaled
# gradient of any component larger than ~1e-7 * |loss| still lands far
# beyond the 1e-4 threshold.
_NOISE_FLOOR_COEFF = 1e-4


def _max_error(analytic: np.ndarray, numeric: np.ndarray, floor: float) -> float:
    """The largest relative error |a - n| / max(|a|, |n|, floor) over all
    coordinates; NaN when either side is non-finite at any (inf / inf
    included). numpy warns on ``inf - inf`` where Python floats do not."""
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), floor)
        return float(err.max(initial=0.0))


def central_difference(loss_fn: Callable[[], float], leaf: Tensor, flat_index: int) -> float:
    """d loss / d leaf[flat_index] by re-running the forward twice.

    Temporarily unfreezes the leaf buffer; the perturbation is always undone.
    """
    with _nudged(leaf, flat_index, DEFAULT_STEP):
        plus = loss_fn()
    with _nudged(leaf, flat_index, -DEFAULT_STEP):
        minus = loss_fn()
    return (plus - minus) / (2.0 * DEFAULT_STEP)


@contextmanager
def _nudged(leaf: Tensor, flat_index: int, step: float):
    """``leaf[flat_index]`` moved by ``step`` inside the block (x + (-h) is
    x - h bit for bit); the value is restored and the buffer frozen again on
    exit."""
    buf = leaf.data
    buf.flags.writeable = True
    original = buf.flat[flat_index]
    try:
        buf.flat[flat_index] = original + step
        yield
    finally:
        buf.flat[flat_index] = original
        buf.flags.writeable = False


def check_loss_gradients(loss_fn: Callable[[], Tensor], leaves: list[Tensor],
                         picks: np.ndarray | None = None) -> float:
    """Max relative error between analytic and numeric gradients.

    ``loss_fn`` must rebuild the graph from the given leaf tensors on every
    call. ``picks`` are the flat coordinates to check, counted across
    ``leaves`` in order; None checks every coordinate. The numeric forwards
    run with every leaf's ``requires_grad`` off, so they build no graph;
    each leaf's flag is restored on return, also when ``loss_fn`` raises.
    A non-finite analytic or numeric value at any pick makes the result NaN.
    """
    return _max_error(*_picked_gradients(loss_fn, leaves, picks))


def _picked_gradients(loss_fn: Callable[[], Tensor], leaves: list[Tensor],
                      picks: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, float]:
    """The analytic and the numeric gradient at each pick of
    ``check_loss_gradients``, and the floor of their relative error."""
    analytic, coords, floor = _analytic_at(loss_fn, leaves, picks)
    with _graph_free(leaves):
        numeric = np.array([central_difference(lambda: loss_fn().item(), leaf, idx)
                            for leaf, idx in coords])
    return analytic, numeric, floor


def _analytic_at(loss_fn: Callable[[], Tensor], leaves: list[Tensor],
                 picks: np.ndarray | None) -> tuple[np.ndarray, list[tuple[Tensor, int]], float]:
    """One backward of ``loss_fn()``: the analytic gradient at each pick,
    each pick's (leaf, flat index) and the floor of the relative error."""
    for leaf in leaves:
        if leaf.dtype != np.float64:
            raise ConfigError("gradient checking requires float64 tensors")
    loss = loss_fn()
    backward(loss)
    floor = max(_REL_FLOOR, _NOISE_FLOOR_COEFF * abs(loss.item()))
    sizes = [leaf.size for leaf in leaves]
    if picks is None:
        picks = np.arange(sum(sizes))
    bounds = np.cumsum([0] + sizes)
    which = np.searchsorted(bounds, picks, side="right") - 1  # each pick's leaf
    offsets = np.asarray(picks) - bounds[which]
    coords = [(leaves[k], idx) for k, idx in zip(which.tolist(), offsets.tolist())]
    analytic = np.array([0.0 if leaf.grad is None else leaf.grad.flat[idx]
                         for leaf, idx in coords])
    return analytic, coords, floor


@contextmanager
def _graph_free(leaves: list[Tensor]):
    """Switch off every leaf's ``requires_grad``, so forwards over them
    record no graph; each leaf's own flag is restored on exit."""
    flags = [leaf.requires_grad for leaf in leaves]
    for leaf in leaves:
        leaf.requires_grad = False
    try:
        yield
    finally:
        for leaf, flag in zip(leaves, flags):
            leaf.requires_grad = flag


def _stacked_central_differences(out_fn: Callable[..., Tensor], inputs: list[Tensor], k: int,
                                 probe: Tensor) -> np.ndarray:
    """d sum(out_fn(*inputs) * probe) / d inputs[k] at every coordinate of
    ``inputs[k]``, from one call of ``out_fn``.

    Every input carries the batch axis. Copy 2j of ``inputs[k]`` has its
    coordinate j nudged by +h and copy 2j + 1 by -h. The copies are stacked
    on axis 0, every other input is repeated once per copy, and each copy's
    loss is the sum of its own slice of ``out * probe``. The op must run
    each copy through the code of an unstacked call, so that every value is
    bit for bit that of ``central_difference``. Call it with every leaf's
    ``requires_grad`` off.
    """
    x = inputs[k].data
    m = 2 * x.size
    copies = np.repeat(x.reshape(1, -1), m, axis=0)
    j = np.arange(x.size)
    copies[2 * j, j] += DEFAULT_STEP
    copies[2 * j + 1, j] -= DEFAULT_STEP
    args = [_wrap(copies.reshape((m * x.shape[0],) + x.shape[1:])) if i == k
            else _wrap(np.tile(t.data, (m,) + (1,) * (t.data.ndim - 1)))
            for i, t in enumerate(inputs)]
    out = out_fn(*args).data.reshape((m,) + probe.shape)
    losses = (out * probe.data).reshape(m, -1).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        return (losses[0::2] - losses[1::2]) / (2.0 * DEFAULT_STEP)


def _distinct(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    """Random tensor in (-1, 1) whose values are pairwise separated and bounded
    away from zero, so max/relu gradients are well defined under perturbation."""
    size = int(np.prod(shape))
    grid = np.linspace(-1.0, 1.0, 2 * size + 1)[1::2]  # excludes 0 and endpoints
    vals = rng.permutation(grid)[:size]
    return Tensor(vals.reshape(shape), requires_grad=True)


def _probe(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    return Tensor(rng.uniform(0.5, 1.5, size=shape))


def op_gradient_suite(seed: int = 0) -> dict[str, float]:
    """Finite-difference check for each engine operation in isolation.

    Returns the worst relative error per op name. Losses project outputs
    against a fixed random probe so transposition mistakes cannot cancel.
    An input that carries the batch axis gets every coordinate's central
    difference from one call of the op over all its nudged copies
    (``_stacked_central_differences``); weights, biases and the im2col
    conv's input, whose stacked call would take the shifted path, are
    nudged one coordinate at a time (``check_loss_gradients``). Both give
    the same bits.
    """
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    def run(name: str, out_fn: Callable[..., Tensor], stacked: list[Tensor],
            leaves: Sequence[Tensor] = ()) -> None:
        """Check ``out_fn(*stacked)``: the ``stacked`` inputs by stacked
        copies, the ``leaves`` it reads one coordinate at a time."""
        probe = _probe(rng, out_fn(*stacked).shape)
        checked = [*stacked, *leaves]
        first = sum(t.size for t in stacked)
        # The analytic backward also fills every stacked input's gradient.
        analytic, numeric, floor = _picked_gradients(
            lambda: sum_all(mul(out_fn(*stacked), probe)), checked,
            np.arange(first, sum(t.size for t in checked)))
        with _graph_free(checked):
            numerics = [_stacked_central_differences(out_fn, stacked, k, probe)
                        for k in range(len(stacked))]
        grads = [np.zeros(x.size) if x.grad is None else x.grad.ravel() for x in stacked]
        results[name] = _max_error(np.concatenate([*grads, analytic]),
                                   np.concatenate([*numerics, numeric]), floor)

    x = _distinct(rng, (1, 3, 5, 5))
    spec1 = ConvSpec.seeded(rng, 3, 4, 1)
    run("conv2d_1x1", lambda x: conv2d(x, spec1), [x], [spec1.weight, spec1.bias])

    x2 = _distinct(rng, (1, 3, 6, 6))
    spec3 = ConvSpec.seeded(rng, 3, 2, 3)
    run("conv2d_3x3", lambda x: conv2d(x, spec3), [x2], [spec3.weight, spec3.bias])

    # o >= n*h*w: the im2col path, which sce.local_3x3 takes. Stacked copies
    # would raise n*h*w past o and take the shifted path instead.
    x3 = _distinct(rng, (1, 3, 2, 2))
    spec3i = ConvSpec.seeded(rng, 3, 4, 3)
    run("conv2d_3x3_im2col", lambda: conv2d(x3, spec3i), [], [x3, spec3i.weight, spec3i.bias])

    xp = _distinct(rng, (1, 2, 6, 6))
    run("max_pool2d", lambda x: max_pool2d(x, 3, 2, 1), [xp])

    xg = _distinct(rng, (1, 4, 4, 4))
    run("global_avg_pool", global_avg_pool, [xg])
    run("global_max_pool", global_max_pool, [xg])

    xi = _distinct(rng, (1, 2, 3, 3))
    run("interpolate_nearest", lambda x: interpolate_nearest(x, 2), [xi])

    xv = _distinct(rng, (2, 6))
    lin = LinearSpec.seeded(rng, 6, 4)
    run("linear", lambda x: linear(x, lin), [xv], [lin.weight, lin.bias])

    xs = _distinct(rng, (1, 2, 4, 4))
    run("sigmoid", sigmoid, [xs])
    run("relu", relu, [xs])

    xa = _distinct(rng, (1, 2, 3, 3))
    xb = _distinct(rng, (1, 2, 3, 3))
    run("add", add, [xa, xb])
    run("mul", mul, [xa, xb])

    w = _distinct(rng, (1, 2))
    run("mul_channelwise", mul_channelwise, [xa, w])
    run("scale", lambda x: scale(x, 0.773), [xa])

    xps = _distinct(rng, (1, 8, 2, 2))
    run("pixel_shuffle", lambda x: pixel_shuffle(x, 2), [xps])
    xpu = _distinct(rng, (1, 2, 4, 4))
    run("pixel_unshuffle", lambda x: pixel_unshuffle(x, 2), [xpu])

    xc = _distinct(rng, (1, 6, 3, 3))
    run("channel_slice", lambda x: channel_slice(x, 1, 4), [xc])
    xbr = _distinct(rng, (1, 3, 1, 1))
    run("broadcast_spatial", lambda x: broadcast_spatial(x, 3, 4), [xbr])
    run("squeeze_spatial", squeeze_spatial, [xbr])

    xsum = _distinct(rng, (1, 2, 3, 3))
    results["sum_all"] = check_loss_gradients(lambda: sum_all(xsum), [xsum])

    # A lone fully connected layer is exactly linear, so central differences
    # are exact up to roundoff. It draws from a fresh generator of the same
    # seed, which ``run`` reads for its probe.
    rng = np.random.default_rng(seed)
    xe = Tensor(rng.uniform(-1, 1, size=(1, 8)), requires_grad=True)
    exact = LinearSpec.seeded(rng, 8, 5)
    run("linear_exact", lambda x: linear(x, exact), [xe], [exact.weight, exact.bias])
    return results


@dataclass(frozen=True)
class EndToEndResult:
    max_rel_error: float
    parameters_checked: int
    parameter_total: int


def _level_sum(outs: PyramidOutputs) -> Tensor:
    loss = sum_all(outs.r2)
    for t in (outs.r3, outs.r4, outs.r5):
        loss = add(loss, sum_all(t))
    return loss


def _reached(out: Tensor) -> set[int]:
    """Ids of the leaves of ``out``'s graph; the graph dies on return."""
    return {id(t) for t in GradTape(out).leaves()}


def _copy_losses(outs: PyramidOutputs, copies: int) -> np.ndarray:
    """Each of ``copies`` copies' ``_level_sum``, stacked on the batch axis:
    its own rows' sums, added in the same order, bit for bit."""
    r2, r3, r4, r5 = (t.data.reshape(copies, -1).sum(axis=1)
                      for t in (outs.r2, outs.r3, outs.r4, outs.r5))
    return r2 + r3 + r4 + r5


def _head_losses(backbone: BackbonePyramid, pyramid: dict[int, Tensor], params: NeckParams,
                 config: NeckConfig) -> Callable[[tuple[int, ...]], Callable[..., np.ndarray]]:
    """``loss_for(route)``: head losses that re-run only the SCE branches
    whose indices (0 local, 1 wide, 2 global) are in ``route``.

    The other branch outputs and the pyramid mean are computed here, once.
    ``loss_for(route)(nudges)`` runs one copy per nudge, a (leaf, flat
    index, step) triple or None for no nudge (the default is one such copy).
    Each copy re-runs the route's branches, unbatched, with only its own
    coordinate moved. The copies' branch outputs are stacked on the batch
    axis, the cached outputs, the mean and the pyramid are tiled to match,
    and the rest of the head runs once over the stack. It returns each
    copy's loss: the sum of the same arrays as ``_level_sum(head_stage(
    backbone, pyramid, params, config))``, in its order, bit for bit,
    because every head op computes each image on its own. A nudge must move
    a branch parameter of ``route``; the rest of the head reads the
    parameters as they stand.
    """
    c5 = backbone.c5
    branches = (_sce_local, _sce_wide, _sce_global)
    cached = [branch(c5, params).data for branch in branches]
    mean = _pyramid_mean(pyramid[2], pyramid[3], pyramid[4]).data

    def loss_for(route: tuple[int, ...]) -> Callable[..., np.ndarray]:
        def outputs(nudge: tuple[Tensor, int, float] | None) -> list[np.ndarray]:
            with _nudged(*nudge) if nudge else nullcontext():
                return [branch(c5, params).data if k in route else cached[k]
                        for k, branch in enumerate(branches)]

        def losses(nudges: Sequence[tuple[Tensor, int, float] | None] = (None,)) -> np.ndarray:
            copies = [outputs(nudge) for nudge in nudges]
            m = len(copies)
            context = _sce_sum(*(_wrap(np.concatenate(outs)) for outs in zip(*copies)))
            integration = _add_context(_wrap(np.concatenate([mean] * m)), context)
            tiled = {i: _wrap(np.concatenate([p.data] * m)) for i, p in pyramid.items()}
            return _copy_losses(_attend(integration, tiled, params, config), m)
        return losses

    return loss_for


def _stacked_head_differences(losses: Callable[..., np.ndarray],
                              coords: list[tuple[Tensor, int]]) -> np.ndarray:
    """The central difference at each (leaf, flat index) of ``coords``
    through ``losses``, a ``loss_for(route)`` of ``_head_losses``:
    ``_STACK_PICKS`` coordinates, so twice as many nudged copies, per
    stacked head run. Bit for bit those of ``central_difference``."""
    numeric = []
    for start in range(0, len(coords), _STACK_PICKS):
        nudges = [(leaf, idx, step) for leaf, idx in coords[start:start + _STACK_PICKS]
                  for step in (DEFAULT_STEP, -DEFAULT_STEP)]
        loss = losses(nudges)
        numeric.append((loss[0::2] - loss[1::2]) / (2.0 * DEFAULT_STEP))
    return np.concatenate(numeric)


def end_to_end_gradcheck(config: NeckConfig, height: int = 64, width: int = 64,
                         batch: int = 1, seed: int = 0, samples: int = 200,
                         pattern: str = "noise") -> EndToEndResult:
    """Check d(sum of all output levels)/d(theta) for sampled parameters.

    The forward pass is rebuilt from the same parameter tensors on every
    evaluation, so each perturbation flows through every op it reaches.
    One backward of the full neck gives every pick's analytic value (a head
    parameter's bits are those of a head-only backward); its gradients are
    released before the numeric side runs. Picks are routed by graph.
    ``head_stage`` runs once over the detached pyramid, and each SCE branch
    once over C5. A pick in a parameter that the head graph reaches is
    checked through a head that re-runs only the branches whose graphs
    reach it, over cached outputs of the other branches and of the pyramid
    mean. An SCE branch's picks go ``_STACK_PICKS`` at a time: each nudged
    copy re-runs the branch, unbatched, and the copies run the rest of the
    head once, stacked on the batch axis (``_stacked_head_differences``).
    A ``cag.*`` pick re-runs no branch and goes one head run at a time.
    Every other pick goes through the full neck, so a parameter whose graph
    edge is lost runs there, where its numeric gradient shows. Each loss is
    the sum of the same arrays the full head would give, bit for bit, so
    the error is that of one check over the whole neck.
    """
    params = init_neck_params(config, seed)
    backbone = synthetic_backbone(config.base_channel, height, width, batch,
                                  seed=seed + 1, pattern=pattern)
    leaves = [t for _name, t in params.named_parameters()]
    total = sum(t.size for t in leaves)
    if samples >= total:
        picks = np.arange(total)
    else:
        picks = np.sort(np.random.default_rng(seed + 2).choice(total, samples, replace=False))
    pyramid = {i: Tensor(p.data) for i, p in pyramid_stage(backbone, params, config).items()}
    # Route on ids alone, so each routing graph dies before the checks run.
    head_ids = _reached(_level_sum(head_stage(backbone, pyramid, params, config)))
    branch_ids = [_reached(branch(backbone.c5, params))
                  for branch in (_sce_local, _sce_wide, _sce_global)]
    # each leaf's route: None for the full neck, else the branches that read it
    leaf_routes = [tuple(k for k, ids in enumerate(branch_ids) if id(t) in ids)
                   if id(t) in head_ids else None for t in leaves]
    routes = [None] + sorted({r for r in leaf_routes if r is not None})
    pick_route = np.repeat([routes.index(r) for r in leaf_routes], [t.size for t in leaves])[picks]

    def full_loss() -> Tensor:
        return _level_sum(cefpn_forward(backbone, params, config))

    # The gradients are dropped before the stacks run; held, they raised the
    # check's desk-scale peak by ~40%.
    analytic, coords, floor = _analytic_at(full_loss, leaves, picks)
    for leaf in leaves:
        leaf.grad = None
    numeric = np.empty(len(picks))
    with _graph_free(leaves):
        loss_for = _head_losses(backbone, pyramid, params, config)
        for j in np.unique(pick_route).tolist():
            at = np.flatnonzero(pick_route == j)
            picked = [coords[i] for i in at]
            if routes[j]:  # a pick in an SCE branch: stacked copies of the head
                numeric[at] = _stacked_head_differences(loss_for(routes[j]), picked)
            else:  # the full neck, or the head for a cag.* pick: one pick at a time
                loss_fn = full_loss if routes[j] is None else loss_for(routes[j])
                numeric[at] = [central_difference(lambda: loss_fn().item(), leaf, idx)
                               for leaf, idx in picked]
    return EndToEndResult(_max_error(analytic, numeric, floor), len(picks), total)
