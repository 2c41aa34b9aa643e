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
value from one backward of the full neck and routes each numeric one by the
graph of the stage that reads it: an SCE branch's parameter re-runs that
branch (the wide one over a cached pooled C5), a post-merge conv's re-runs
that conv over its cached merged map, and a lateral's or the scheme-a
reduction's re-runs ``pyramid_stage``. The nudged copies of a stack of such
picks, within ``_STACK_IMAGES`` images, then run the rest of the head as one
batch, whose ops (``linear`` too) compute every image on its own. An
attention parameter, which a stack would share, is nudged one head run at a
time, and only a parameter that no stage graph reaches goes through the full
neck. A non-finite gradient at any pick makes the error non-finite, which
fails.
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
    _attend, _fused_laterals, _merge, _post_merge, _pyramid_mean, _sce_global, _sce_local, \
    _sce_pool, _sce_sum, _sce_wide, cefpn_forward, head_stage, init_neck_params, \
    pixel_shuffle, pixel_unshuffle, pyramid_stage
from .ops import ConvSpec, LinearSpec, conv2d, global_avg_pool, global_max_pool, \
    interpolate_nearest, linear, max_pool2d
from .tensor import GradTape, Tensor, _wrap, add, backward, broadcast_spatial, channel_slice, \
    mul, mul_channelwise, relu, scale, sigmoid, squeeze_spatial, sum_all

DEFAULT_STEP = 1e-6
DEFAULT_THRESHOLD = 1e-4
_REL_FLOOR = 1e-6
# Images per stacked head run in the end-to-end check: a pick's two nudged
# copies of ``batch`` images each, as many picks as fit, at least one. At
# desk scale the stacks then peak below the full neck's backward at batch 1
# and 2; at 16 images (seed 1, batch 1) the check's peak rose 29%
# (tracemalloc).
_STACK_IMAGES = 8

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


def _reached(*outs: Tensor) -> set[int]:
    """Ids of the leaves of the graphs of ``outs``; the graphs die on return."""
    return {id(t) for out in outs for t in GradTape(out).leaves()}


def _copy_losses(outs: PyramidOutputs, copies: int) -> np.ndarray:
    """Each of ``copies`` copies' ``_level_sum``, stacked on the batch axis:
    its own rows' sums, added in the same order, bit for bit."""
    r2, r3, r4, r5 = (t.data.reshape(copies, -1).sum(axis=1)
                      for t in (outs.r2, outs.r3, outs.r4, outs.r5))
    return r2 + r3 + r4 + r5


def _route_losses(backbone: BackbonePyramid, pyramid: dict[int, Tensor], params: NeckParams,
                  config: NeckConfig) -> Callable[[tuple[str, ...]], Callable[..., np.ndarray]]:
    """``loss_for(route)``: neck losses that re-run only the stages whose
    keys are in ``route``.

    A stage key names what one pick can re-run alone: ``local``, ``wide``
    and ``global``, an SCE branch (the wide one over C5 pooled here, once);
    ``P2``..``P5``, one level's post-merge conv over its merged map
    (computed here, once); ``pyramid``, all of ``pyramid_stage``, whose
    levels win over a post-merge key's. The other branch outputs, pyramid
    levels and the pyramid mean are computed here, once.
    ``loss_for(route)(nudges)`` runs one copy per nudge, a (leaf, flat
    index, step) triple or None for no nudge (the default is one such copy).
    Each copy re-runs the route's stages, unbatched, with only its own
    coordinate moved, and writes each output straight into its rows of one
    stacked array per output. The cached outputs are tiled to match, the
    pyramid mean is recomputed over the stacked levels when a level it
    reads moved, and the rest of the head runs once over the stack. It
    returns each copy's loss: the sum of the same arrays as
    ``_level_sum(cefpn_forward(backbone, params, config))``, in its order,
    bit for bit, because every head op computes each image on its own. A
    nudge must move a parameter that only the route's stages read.
    """
    c5 = backbone.c5
    pooled = _sce_pool(c5)
    merged = _merge(_fused_laterals(backbone, params, config))
    stages = {"local": lambda: {"local": _sce_local(c5, params)},
              "wide": lambda: {"wide": _sce_wide(pooled, params)},
              "global": lambda: {"global": _sce_global(c5, params)}}
    stages.update((f"P{i}", lambda f={i: f}: _post_merge(f, params)) for i, f in merged.items())
    stages["pyramid"] = lambda: pyramid_stage(backbone, params, config)
    cached = {k: t.data for key in ("local", "wide", "global") for k, t in stages[key]().items()}
    cached.update((i, p.data) for i, p in pyramid.items())
    mean = _pyramid_mean(pyramid[2], pyramid[3], pyramid[4]).data

    def loss_for(route: tuple[str, ...]) -> Callable[..., np.ndarray]:
        def losses(nudges: Sequence[tuple[Tensor, int, float] | None] = (None,)) -> np.ndarray:
            m = len(nudges)
            stacked: dict[int | str, np.ndarray] = {}
            for j, nudge in enumerate(nudges):
                with _nudged(*nudge) if nudge else nullcontext():
                    outs = {k: t.data for key in route for k, t in stages[key]().items()}
                for k, a in outs.items():
                    if k not in stacked:
                        stacked[k] = np.empty((m * len(a),) + a.shape[1:], dtype=a.dtype)
                    stacked[k][j * len(a):(j + 1) * len(a)] = a
            del outs
            moved = set(stacked)
            for k, a in cached.items():
                if k not in moved:
                    stacked[k] = np.concatenate([a] * m)
            levels = {i: _wrap(stacked[i]) for i in pyramid}
            context = _sce_sum(*(_wrap(stacked[k]) for k in ("local", "wide", "global")))
            if moved & {2, 3, 4}:
                pyramid_mean = _pyramid_mean(levels[2], levels[3], levels[4])
            else:
                pyramid_mean = _wrap(np.concatenate([mean] * m))
            integration = _add_context(pyramid_mean, context)
            return _copy_losses(_attend(integration, levels, params, config), m)
        return losses

    return loss_for


def _stacked_head_differences(losses: Callable[..., np.ndarray],
                              coords: list[tuple[Tensor, int]], batch: int) -> np.ndarray:
    """The central difference at each (leaf, flat index) of ``coords``
    through ``losses``, a ``loss_for(route)`` of ``_route_losses`` over
    ``batch`` images: as many coordinates per stacked head run as keep its
    nudged copies (two per coordinate) within ``_STACK_IMAGES`` images, and
    at least one. Bit for bit those of ``central_difference``."""
    per_stack = max(1, _STACK_IMAGES // (2 * batch))
    numeric = []
    for start in range(0, len(coords), per_stack):
        nudges = [(leaf, idx, step) for leaf, idx in coords[start:start + per_stack]
                  for step in (DEFAULT_STEP, -DEFAULT_STEP)]
        loss = losses(nudges)
        numeric.append((loss[0::2] - loss[1::2]) / (2.0 * DEFAULT_STEP))
    return np.concatenate(numeric)


def _leaf_routes(backbone: BackbonePyramid, params: NeckParams, config: NeckConfig,
                 leaves: list[Tensor]) -> tuple[dict[int, Tensor], list[tuple[str, ...] | None]]:
    """The detached pyramid, and each leaf's route for ``_route_losses``:
    the keys of the stages whose graphs reach it. The stage graphs are each
    SCE branch's, each level's post-merge conv's over its detached merged
    map, and (``pyramid``) the laterals, skip fusion and merge before them.
    A leaf no stage graph reaches gets () when the head's graph over the
    detached pyramid reaches it (``cag.*``: only the tail reads it), else
    None: the full neck. Routing keeps only ids, so every graph dies here.
    """
    c5 = backbone.c5
    stage_ids = {"local": _reached(_sce_local(c5, params)),
                 "wide": _reached(_sce_wide(_sce_pool(c5), params)),
                 "global": _reached(_sce_global(c5, params))}
    merged = _merge(_fused_laterals(backbone, params, config))
    post = _post_merge({i: Tensor(f.data) for i, f in merged.items()}, params)
    stage_ids.update((f"P{i}", _reached(p)) for i, p in post.items())
    stage_ids["pyramid"] = _reached(*merged.values())  # last: its levels win
    pyramid = {i: Tensor(p.data) for i, p in post.items()}
    head_ids = _reached(_level_sum(head_stage(backbone, pyramid, params, config)))
    routes = []
    for t in leaves:
        route = tuple(key for key, ids in stage_ids.items() if id(t) in ids)
        routes.append(route if route or id(t) in head_ids else None)
    return pyramid, routes


def end_to_end_gradcheck(config: NeckConfig, height: int = 64, width: int = 64,
                         batch: int = 1, seed: int = 0, samples: int = 200,
                         pattern: str = "noise") -> EndToEndResult:
    """Check d(sum of all output levels)/d(theta) for sampled parameters.

    The forward pass is rebuilt from the same parameter tensors on every
    evaluation, so each perturbation flows through every op it reaches.
    One backward of the full neck gives every pick's analytic value; its
    gradients are released before the numeric side runs. Each pick is
    routed by the graph of the stage that reads it (``_leaf_routes``) and
    re-runs only that stage over cached inputs: an SCE branch (the wide one
    over the pooled C5), one level's post-merge conv over its merged map,
    or, for a lateral or ``ssf.reduce_C5`` pick, ``pyramid_stage``. Such
    picks go as many at a time as keep a stack within ``_STACK_IMAGES``
    images: each nudged copy re-runs its stage, unbatched, and the copies
    run the rest of the head once, stacked on the batch axis
    (``_stacked_head_differences``). A ``cag.*`` pick re-runs no stage and
    goes one head run at a time. A pick in a parameter that no stage graph
    reaches goes through the full neck, so a parameter whose graph edge is
    lost runs there, where its numeric gradient shows; in a correct neck
    ``cefpn_forward`` runs once, for the analytic values. Each loss is the
    sum of the same arrays the full neck would give, bit for bit, so the
    error is that of one check over the whole neck.
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
    pyramid, leaf_routes = _leaf_routes(backbone, params, config, leaves)
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
        loss_for = _route_losses(backbone, pyramid, params, config)
        for j in np.unique(pick_route).tolist():
            at = np.flatnonzero(pick_route == j)
            picked = [coords[i] for i in at]
            if routes[j]:  # a pick some stage reads: stacked copies of the head
                numeric[at] = _stacked_head_differences(loss_for(routes[j]), picked, batch)
            else:  # the full neck, or the head for a cag.* pick: one pick at a time
                loss_fn = full_loss if routes[j] is None else loss_for(routes[j])
                numeric[at] = [central_difference(lambda: loss_fn().item(), leaf, idx)
                               for leaf, idx in picked]
    return EndToEndResult(_max_error(analytic, numeric, floor), len(picks), total)
