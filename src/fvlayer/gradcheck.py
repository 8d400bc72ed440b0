"""Central finite-difference verification of every analytic derivative.

Each check builds a small random instance, materializes the full analytic
Jacobian through the production backward code (one-hot upstreams), and
compares against central differences of the corresponding forward map.
Errors are reported per derivative block so a wrong term is immediately
attributable. The verification-only oracles (a per-point forward, dense
Jacobians, posterior derivatives) live here, not in the runtime modules.
"""

from __future__ import annotations

import numpy as np

from .feature_layer import FeatureLayerParams, layer_backward, layer_forward, xavier_init
from .fisher import _check_inputs, fv_backward, fv_forward, fv_length
from .gmm import (
    GmmParams,
    RawGmmParams,
    posteriors,
    reparam_backward,
    reparam_forward,
)
from .normalization import norm_backward, norm_forward
from .pipeline import Encoder, _grad_chunk

__all__ = [
    "STEP",
    "max_rel_error",
    "fd_jacobian",
    "random_instance",
    "check_fv_blocks",
    "check_posterior_blocks",
    "check_norm_block",
    "check_reparam_blocks",
    "check_layer_blocks",
    "check_end_to_end",
    "run_battery",
    "battery_instances",
    "fv_forward_naive",
    "fv_jacobian_params",
    "fv_jacobian_input",
    "posterior_grad_input",
    "posterior_grad_params",
]

# central-difference step, and the absolute difference below which an
# entry passes whatever its relative error
STEP = 1e-5
ABS_FLOOR = 1e-9


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest entry-wise relative error; differences below ABS_FLOOR pass."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ValueError(f"shape mismatch: {analytic.shape} vs {numeric.shape}")
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(diff <= ABS_FLOOR, 0.0, diff / np.maximum(scale, ABS_FLOOR))
    return float(rel.max()) if rel.size else 0.0


def fd_jacobian(func, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of func at x, shape (out size, x size)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel().copy()
    base = np.asarray(func(flat.reshape(x.shape)), dtype=np.float64).ravel()
    jac = np.empty((base.size, flat.size))
    for j in range(flat.size):
        saved = flat[j]
        flat[j] = saved + STEP
        hi = np.asarray(func(flat.reshape(x.shape)), dtype=np.float64).ravel()
        flat[j] = saved - STEP
        lo = np.asarray(func(flat.reshape(x.shape)), dtype=np.float64).ravel()
        flat[j] = saved
        jac[:, j] = (hi - lo) / (2.0 * STEP)
    return jac


def fv_forward_naive(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Literal per-point accumulation of the encoding. Test oracle only."""
    features, _ = _check_inputs(features, params)
    t = features.shape[0]
    k, d = params.n_components, params.dim
    sigma = np.sqrt(params.variances)
    acc_w = np.zeros(k)
    acc_mu = np.zeros((k, d))
    acc_var = np.zeros((k, d))
    for i in range(t):
        g = posteriors(features[i : i + 1], params)[0]
        a = (features[i] - params.means) / sigma
        acc_w += g - params.weights
        acc_mu += g[:, None] * a
        acc_var += g[:, None] * (a * a - 1.0) / np.sqrt(2.0)
    sqw = np.sqrt(params.weights)
    f_w = acc_w / (t * sqw)
    f_mu = acc_mu / (t * sqw[:, None])
    f_var = acc_var / (t * sqw[:, None])
    return np.concatenate([f_w, f_mu.ravel(), f_var.ravel()])


def _onehot_rows(backward, n: int) -> np.ndarray:
    """Row i is backward(e_i), raveled, for the n one-hot upstreams e_i: the
    Jacobian whose transpose `backward` applies."""
    return np.stack([np.ravel(backward(one_hot)) for one_hot in np.eye(n)])


def _fv_rows(features: np.ndarray, params: GmmParams, pick) -> np.ndarray:
    """_onehot_rows of pick(fv_backward(...)) over the encoding entries."""
    features, _ = _check_inputs(features, params)
    gamma = posteriors(features, params)
    return _onehot_rows(
        lambda upstream: pick(fv_backward(features, params, gamma, upstream)),
        fv_length(params.n_components, params.dim),
    )


def fv_jacobian_params(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Full parameter Jacobian, shape ((2D+1)K, K + 2KD). Debug sizes only.

    Row i is the gradient of encoding entry i; columns are packed as
    [weights | means | variances]. Built by contracting one-hot upstreams,
    so it exercises exactly the production backward path.
    """
    return _fv_rows(
        features, params, lambda grads: np.concatenate([g.ravel() for g in grads[:3]])
    )


def fv_jacobian_input(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Full input Jacobian, shape ((2D+1)K, T * D). Debug sizes only."""
    return _fv_rows(features, params, lambda grads: grads[3])


def posterior_grad_input(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Derivative of every posterior with respect to its own point.

    Returns (T, K, D): entry [t, k, e] is d gamma_k(x_t) / d x_t[e]. Point t
    only influences its own posterior row.
    """
    features, _ = _check_inputs(features, params)
    gamma = posteriors(features, params)
    beta = (features[:, None, :] - params.means[None]) / params.variances[None]
    pooled = np.einsum("tk,tkd->td", gamma, beta)
    return gamma[:, :, None] * (pooled[:, None, :] - beta)


def posterior_grad_params(
    features: np.ndarray, params: GmmParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Derivatives of posteriors with respect to mixture parameters.

    Weights are treated as free coordinates (the normalization lives inside
    the posterior itself). Returns
      d_weights   (T, K, K):    [t, k, s] = d gamma_k(x_t) / d w_s
      d_means     (T, K, K, D): [t, k, s, e] = d gamma_k(x_t) / d mu_s[e]
      d_variances (T, K, K, D): [t, k, s, e] = d gamma_k(x_t) / d var_s[e]

    Sized for small verification instances; the training path never
    materializes these tensors.
    """
    features, _ = _check_inputs(features, params)
    gamma = posteriors(features, params)
    k = params.n_components
    w = params.weights
    eye = np.eye(k)
    d_weights = gamma[:, :, None] * (
        (eye / w[:, None])[None, :, :] - (gamma / w[None, :])[:, None, :]
    )
    # shared factor gamma_k (delta_ks - gamma_s)
    pair = gamma[:, :, None] * (eye[None, :, :] - gamma[:, None, :])  # (T, K, S)
    diff = features[:, None, :] - params.means[None]  # (T, S, D)
    beta = diff / params.variances[None]
    d_means = pair[:, :, :, None] * beta[:, None, :, :]
    vterm = (diff * diff / params.variances[None] - 1.0) / (
        2.0 * params.variances[None]
    )
    d_variances = pair[:, :, :, None] * vterm[:, None, :, :]
    return d_weights, d_means, d_variances


def _pack(params: GmmParams) -> np.ndarray:
    return np.concatenate(
        [params.weights, params.means.ravel(), params.variances.ravel()]
    )


def _unpack(vec: np.ndarray, k: int, d: int) -> GmmParams:
    return GmmParams(
        weights=vec[:k].copy(),
        means=vec[k : k + k * d].reshape(k, d).copy(),
        variances=vec[k + k * d :].reshape(k, d).copy(),
    )


def random_instance(
    n_components: int, dim: int, n_points: int, seed: int
) -> tuple[np.ndarray, GmmParams]:
    """Moderate-scale random features and mixture for derivative checks.

    Weights are bounded away from zero and variances away from both zero
    and saturation so no derivative is vacuously tiny.
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(n_components, 5.0)) + 0.2
    weights /= weights.sum()
    means = rng.normal(0.0, 1.0, size=(n_components, dim))
    variances = rng.uniform(0.3, 2.0, size=(n_components, dim))
    features = rng.normal(0.0, 1.2, size=(n_points, dim))
    return features, GmmParams(weights, means, variances)


_ROW_NAMES = ("fv_w", "fv_mu", "fv_var")
_COL_NAMES = ("weights", "means", "variances")


def check_fv_blocks(
    n_components: int, dim: int, n_points: int, seed: int
) -> dict[str, float]:
    """All twelve encoding derivative blocks of one instance.

    Nine parameter blocks (three encoding row groups against weights, means,
    variances; weights perturbed as free coordinates) plus the three input
    blocks. Values are max relative errors against central differences.
    """
    features, params = random_instance(n_components, dim, n_points, seed)
    k, d = n_components, dim

    analytic_params = fv_jacobian_params(features, params)
    numeric_params = fd_jacobian(
        lambda v: fv_forward(features, _unpack(v, k, d))[0], _pack(params)
    )
    analytic_input = fv_jacobian_input(features, params)
    numeric_input = fd_jacobian(
        lambda x: fv_forward(x.reshape(n_points, d), params)[0], features.ravel()
    )

    row_slices = (slice(0, k), slice(k, k + k * d), slice(k + k * d, k + 2 * k * d))
    col_slices = row_slices  # parameter packing uses the same offsets
    errors: dict[str, float] = {}
    for row_name, rows in zip(_ROW_NAMES, row_slices):
        for col_name, cols in zip(_COL_NAMES, col_slices):
            errors[f"{row_name}/{col_name}"] = max_rel_error(
                analytic_params[rows, cols], numeric_params[rows, cols]
            )
        errors[f"{row_name}/input"] = max_rel_error(
            analytic_input[rows], numeric_input[rows]
        )
    return errors


def check_posterior_blocks(
    n_components: int, dim: int, n_points: int, seed: int
) -> dict[str, float]:
    """Posterior derivatives against inputs and all three parameter groups."""
    features, params = random_instance(n_components, dim, n_points, seed + 1000)
    k, d, t = n_components, dim, n_points
    gamma_grad_x = posterior_grad_input(features, params)
    d_w, d_mu, d_var = posterior_grad_params(features, params)

    numeric = fd_jacobian(
        lambda x: posteriors(x.reshape(t, d), params), features.ravel()
    ).reshape(t, k, t, d)
    # point t only moves its own posterior row
    analytic_full = np.zeros((t, k, t, d))
    idx = np.arange(t)
    analytic_full[idx, :, idx, :] = gamma_grad_x
    err_input = max_rel_error(analytic_full, numeric)

    numeric_p = fd_jacobian(
        lambda v: posteriors(features, _unpack(v, k, d)), _pack(params)
    ).reshape(t, k, k + 2 * k * d)
    err_w = max_rel_error(d_w, numeric_p[:, :, :k].reshape(t, k, k))
    err_mu = max_rel_error(
        d_mu, numeric_p[:, :, k : k + k * d].reshape(t, k, k, d)
    )
    err_var = max_rel_error(
        d_var, numeric_p[:, :, k + k * d :].reshape(t, k, k, d)
    )
    return {
        "posterior/input": err_input,
        "posterior/weights": err_w,
        "posterior/means": err_mu,
        "posterior/variances": err_var,
    }


def check_norm_block(dim: int, seed: int) -> float:
    """Backward of the power + L2 normalization against central differences.

    The test vector is bounded away from zero since the square root is not
    differentiable at the origin.
    """
    rng = np.random.default_rng(seed + 2000)
    vector = rng.uniform(0.1, 1.5, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    numeric = fd_jacobian(norm_forward, vector)  # (dim, dim)
    analytic = _onehot_rows(lambda upstream: norm_backward(vector, upstream), dim)
    return max_rel_error(analytic, numeric)


def check_reparam_blocks(n_components: int, dim: int, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed + 3000)
    raw = RawGmmParams(
        nu=rng.normal(0.0, 1.0, size=n_components),
        zeta=rng.normal(-0.5, 0.5, size=(n_components, dim)),
        means=rng.normal(0.0, 1.0, size=(n_components, dim)),
    )

    def weights_of(nu_vec: np.ndarray) -> np.ndarray:
        return reparam_forward(RawGmmParams(nu_vec, raw.zeta, raw.means)).weights

    def variances_of(zeta_vec: np.ndarray) -> np.ndarray:
        return reparam_forward(
            RawGmmParams(raw.nu, zeta_vec.reshape(raw.zeta.shape), raw.means)
        ).variances.ravel()

    k, d = n_components, dim
    numeric_nu = fd_jacobian(weights_of, raw.nu)  # (K, K)
    analytic_nu = _onehot_rows(lambda u: reparam_backward(raw, u, np.zeros((k, d)))[0], k)
    err_nu = max_rel_error(analytic_nu, numeric_nu)

    numeric_zeta = fd_jacobian(variances_of, raw.zeta.ravel())
    analytic_zeta = _onehot_rows(
        lambda u: reparam_backward(raw, np.zeros(k), u.reshape(k, d))[1], k * d
    )
    err_zeta = max_rel_error(analytic_zeta, numeric_zeta)
    return {"reparam/nu": err_nu, "reparam/zeta": err_zeta}


def check_layer_blocks(dim: int, n_points: int, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed + 4000)
    params = xavier_init(dim, seed)
    params.bias = rng.normal(0.0, 0.2, size=dim)
    inputs = rng.normal(0.0, 0.8, size=(n_points, dim))
    upstream = rng.normal(0.0, 1.0, size=(n_points, dim))

    def loss_at(weight: np.ndarray, bias: np.ndarray, x: np.ndarray) -> float:
        out = layer_forward(x, FeatureLayerParams(weight, bias))
        return float((out * upstream).sum())

    d_weight, d_bias, d_inputs = layer_backward(inputs, params, upstream)
    num_w = fd_jacobian(
        lambda w: np.array([loss_at(w.reshape(dim, dim), params.bias, inputs)]),
        params.weight.ravel(),
    ).reshape(dim, dim)
    num_b = fd_jacobian(
        lambda b: np.array([loss_at(params.weight, b, inputs)]), params.bias
    ).ravel()
    num_x = fd_jacobian(
        lambda x: np.array([loss_at(params.weight, params.bias, x.reshape(n_points, dim))]),
        inputs.ravel(),
    ).reshape(n_points, dim)
    return {
        "layer/weight": max_rel_error(d_weight, num_w),
        "layer/bias": max_rel_error(d_bias, num_b),
        "layer/input": max_rel_error(d_inputs, num_x),
    }


def check_end_to_end(seed: int) -> tuple[float, float, float]:
    """Whole-chain gradient check on a micro configuration: K = D = 2 and
    two images of four points each, so the trainer stacks them.

    Scalar loss sum_i -y_i theta^T phi(F(tanh(W x~_i + b))) differentiated
    against every trainable coordinate (nu, zeta, means, weight, bias) by
    the trainer's own per-image gradient (pipeline._grad_chunk, which
    stacks equal-size images into one batched pass), compared to central
    differences through the Encoder's forward pass on one image at a time.

    Returns (max_rel_error with its ABS_FLOOR, which is what a gate
    bounds; the unfloored largest absolute gap; the unfloored largest
    relative gap), so a report can show drift below the floor.
    """
    rng = np.random.default_rng(seed + 5000)
    k, d, n_points, n_images = 2, 2, 4, 2
    raw = RawGmmParams(
        nu=rng.normal(0.0, 0.6, size=k),
        zeta=rng.normal(-0.8, 0.4, size=(k, d)),
        means=rng.normal(0.0, 0.7, size=(k, d)),
    )
    layer = xavier_init(d, seed + 1)
    layer.bias = rng.normal(0.0, 0.1, size=d)
    inputs = [rng.normal(0.0, 0.8, size=(n_points, d)) for _ in range(n_images)]
    labels = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n_images)])
    theta = rng.normal(0.0, 1.0, size=fv_length(k, d))

    def loss_from(vec: np.ndarray) -> np.ndarray:
        nu, zeta, means, weight, bias = np.split(vec, np.cumsum([k, k * d, k * d, d * d]))
        encoder = Encoder(
            reparam_forward(RawGmmParams(nu, zeta.reshape(k, d), means.reshape(k, d))),
            FeatureLayerParams(weight.reshape(d, d), bias),
        )
        total = 0.0
        for y, xt in zip(labels, inputs):
            total += -y * float(theta @ encoder.forward(xt[None])[0][0])
        return np.array([total])

    packed = np.concatenate(
        [raw.nu, raw.zeta.ravel(), raw.means.ravel(), layer.weight.ravel(), layer.bias]
    )
    numeric = fd_jacobian(loss_from, packed).ravel()

    # one class whose SVM bias is zero: the trainer's upstream is -y * theta
    entries = _grad_chunk(
        [(xt, np.array([y])) for y, xt in zip(labels, inputs)],
        raw, layer, np.append(theta, 0.0)[None, :], True, True,
    )
    analytic = np.concatenate([
        sum(entry[key] for entry in entries).ravel()
        for key in ("d_nu", "d_zeta", "d_means", "d_weight", "d_bias")
    ])
    gap = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0.0)
    return max_rel_error(analytic, numeric), float(gap.max()), float(rel.max())


def battery_instances() -> list[tuple[int, int, int]]:
    """The (K, D, T) grid used by the standard battery."""
    return [(k, d, t) for k in (1, 2, 3) for d in (1, 2, 3) for t in (1, 4, 8)]


def run_battery(seed: int = 0) -> dict[str, float]:
    """Worst relative error per derivative block over the standard grid."""
    worst: dict[str, float] = {}

    def fold(errors: dict[str, float]) -> None:
        for name, value in errors.items():
            worst[name] = max(worst.get(name, 0.0), value)

    for index, (k, d, t) in enumerate(battery_instances()):
        inst_seed = seed + 31 * index
        fold(check_fv_blocks(k, d, t, inst_seed))
        fold(check_posterior_blocks(k, d, t, inst_seed))
        fold({"norm/input": check_norm_block(fv_length(k, d), inst_seed)})
        fold(check_reparam_blocks(k, d, inst_seed))
        fold(check_layer_blocks(d, t, inst_seed))
    fold({"end_to_end": check_end_to_end(seed)[0]})
    return worst
