import numpy as np
import pytest

from binq import Role, WeightMatrix


def gaussian_matrix(seed, shape=(64, 64), sigma=1.0, mu=0.0,
                    role=Role.LANGUAGE, name="layer"):
    rng = np.random.default_rng(seed)
    data = rng.normal(mu, sigma, shape).astype(np.float32)
    return WeightMatrix(name=name, role=role, data=data)


def outlier_matrix(seed, shape=(128, 128), sigma=0.02, frac=0.01,
                   magnitude=10.0, spread=0.0, role=Role.LANGUAGE,
                   name="layer"):
    """Gaussian bulk with a fraction of entries replaced by +/- outliers.

    magnitude is in units of the bulk sigma; spread > 0 draws magnitudes
    uniformly from [magnitude - spread, magnitude + spread].
    """
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, sigma, shape)
    count = int(round(data.size * frac))
    idx = rng.choice(data.size, count, replace=False)
    mags = rng.uniform(magnitude - spread, magnitude + spread, count) * sigma
    data.ravel()[idx] = mags * rng.choice([-1.0, 1.0], count)
    return WeightMatrix(name=name, role=role, data=data.astype(np.float32))


def straddling_outlier_matrix(seed, shape=(96, 96), sigma=0.02, frac=0.03,
                              role=Role.LANGUAGE, name="layer"):
    """Outliers placed between the 5% and 1% saliency cutoffs.

    Magnitudes land around 2.2-2.55 of the inflated standard deviation, so
    a 1% saliency threshold leaves them in the outermost unsalient subset
    while a 5% threshold isolates them.
    """
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, sigma, shape)
    count = int(round(data.size * frac))
    idx = rng.choice(data.size, count, replace=False)
    # Fixed point of sigma-hat inflation for u ~ U[2.2, 2.55].
    e_u2 = (2.2 ** 2 + 2.2 * 2.55 + 2.55 ** 2) / 3.0
    sigma_hat = sigma * np.sqrt((1.0 - frac) / (1.0 - frac * e_u2))
    mags = rng.uniform(2.2, 2.55, count) * sigma_hat
    data.ravel()[idx] = mags * rng.choice([-1.0, 1.0], count)
    return WeightMatrix(name=name, role=role, data=data.astype(np.float32))


def capped_layer(cap, seed):
    """A layer with one |w| between the salient cutoffs of a cap with more
    than six decimals and of its rounding, so that J differs at the two.

    Its search picks the cap on the cap's own J with seed 4, and an interior
    share with seed 3, where J at the cap exceeds J at its rounding.
    """
    from binq.partitioner import compute_cutoffs, magnitude_thresholds
    from binq.weight_stats import fit_gaussian

    data = outlier_matrix(seed, (40, 40), frac=0.03, magnitude=8.0).data
    for _ in range(4):  # the fit moves with the placed value, less each time
        fit = fit_gaussian(WeightMatrix("c", Role.LANGUAGE, data))
        lo, hi = (magnitude_thresholds(fit, compute_cutoffs(p, 5))[-1]
                  for p in (cap, round(cap, 6)))
        data[0, 0] = (lo + hi) / 2
    assert lo < data[0, 0] <= hi
    return WeightMatrix("capped", Role.LANGUAGE, data)


def relative_error(matrix, layer):
    """Frobenius error of a layer's reconstruction relative to the matrix norm."""
    from binq import reconstruction_error

    return float(np.sqrt(reconstruction_error(matrix, layer) / matrix.squared_norm()))


def score_layer(matrix, layer):
    """Dense oracle of the objective: a layer's residual over ||W||^2.

    The residual of each group is summed over its members in row-major order.
    """
    from binq import ObjectiveEval

    sq = np.square(matrix.data.astype(np.float64) - layer.dense()).ravel()
    labels = layer.labels.ravel()
    res = [float(np.sum(np.compress(labels == k, sq)))
           for k in range(layer.config.n_uns + 1)]
    sal_res, uns_res, denom = res[-1], tuple(res[:-1]), matrix.squared_norm()
    return ObjectiveEval(p_sal=layer.p_sal_used, j=(sal_res + sum(uns_res)) / denom,
                         salient_residual=sal_res, unsalient_residuals=uns_res,
                         denom=denom)


def one_shell(values):
    """(matrix, scalar, signs) of a one-row layer built with every element in one shell.

    A zero-sigma fit has no cutoffs, so the single shell takes all of it.
    scalar is the shell's float64 mean |w| from `shell_scalar`, before the
    storage rounding the built layer applies; signs is the layer's stream.
    """
    from binq import QuantConfig
    from binq.saliency_optimizer import LayerObjective
    from binq.unsalient_binarizer import shell_scalar
    from binq.weight_stats import GaussianFit

    mat = WeightMatrix("t", Role.LANGUAGE, np.asarray(values, np.float32).reshape(1, -1))
    fit = GaussianFit(mu=0.0, sigma=0.0)
    layer = LayerObjective(mat, fit, QuantConfig(n_uns=1, p_sal_max=0.05)).layer(0.0)
    assert not layer.labels.any()
    scalar = shell_scalar(np.abs(mat.data).ravel().astype(np.float64))
    assert layer.scalars[0] == np.float16(scalar)
    return mat, scalar, layer.signs


def salient_members(matrix, mask):
    """(rows, values, m) of the salient members under a mask, as the fit takes them."""
    return np.nonzero(mask)[0], matrix.data[mask].astype(np.float64), matrix.m


def rowwise_residuals(matrix, mask, iters):
    """Squared salient residual of the row-wise fit after iterations 1..iters.

    With atol = 0 fit_rowwise is deterministic, so a fit run for k
    iterations holds the state after iteration k of any longer run.
    """
    from binq.salient_quantizer import fit_rowwise

    rows, w, m = salient_members(matrix, mask)
    out = []
    for k in range(1, iters + 1):
        scales, relaxed = fit_rowwise(rows, w, m, iters=k)
        out.append(float(np.sum(np.square(w - scales[rows] * relaxed))))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
