"""Reference computations for the benchmark's output checks.

Nothing here calls lpmch: inputs are built from known factors with NumPy,
and every expected value is recomputed independently (NumPy, and
scipy.stats for the probability laws), so a check cannot pass merely
because the program agrees with itself.
"""

import math
import subprocess
import sys
import time

import numpy as np

UNIT_ROUNDOFF = np.finfo(float).eps / 2


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def digits(err):
    """-log10 of a relative error; errors below the unit roundoff count as exact."""
    return -math.log10(max(float(err), UNIT_ROUNDOFF))


def rel_err(x, ref):
    """Frobenius (or absolute-value) relative error of x against ref."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise CheckError(f"shape {x.shape} != reference shape {ref.shape}")
    scale = float(np.linalg.norm(ref))
    err = float(np.linalg.norm(x - ref))
    if not math.isfinite(err):
        raise CheckError("non-finite output")
    return err / scale if scale > 0 else err


def expect_close(x, ref, tol, what):
    """Relative error of x against ref; raise CheckError above tol."""
    err = rel_err(x, ref)
    if not err <= tol:
        raise CheckError(f"{what}: relative error {err:.3e} exceeds {tol:.3e}")
    return err


def expect_equal(x, ref, what):
    if x != ref:
        raise CheckError(f"{what}: got {x!r}, expected {ref!r}")


# ----------------------------------------------------------------------------
# Inputs built from known factors
# ----------------------------------------------------------------------------

def random_pattern(rng, n):
    return tuple(int(s) for s in rng.choice((1, -1), size=n))


def canonical_signs(eps):
    """Diagonal of the canonical point D_eps: d_j = e_{j-1} e_j with e_0 = 1."""
    e = np.asarray(eps, dtype=float)
    return e * np.concatenate(([1.0], e[:-1]))


def pattern_of_signs(d):
    """Inverse of canonical_signs: e_k = d_1 ... d_k."""
    return tuple(int(s) for s in np.cumprod(np.sign(d)))


def random_factor(rng, n):
    """Lower triangular, diagonal in [0.5, 2], strict-lower N(0, 1/n).

    Condition numbers stay near 10 up to n = 256, so the factor problem is
    well posed at every size the benchmark uses.
    """
    L = np.tril(rng.standard_normal((n, n)), -1) / math.sqrt(n)
    return L + np.diag(rng.uniform(0.5, 2.0, n))


def lpm_matrix(L, eps):
    """L D_eps L^T."""
    M = (L * canonical_signs(eps)) @ L.T
    return (M + M.T) / 2


def tpm_matrix(L, eps):
    """L^T C L with C the reversal of D_eps: the trailing-minor composition."""
    C = np.diag(canonical_signs(eps)[::-1])
    M = L.T @ C @ L
    return (M + M.T) / 2


def cone_matrix(L, eps, cone):
    return lpm_matrix(L, eps) if cone == "lpm" else tpm_matrix(L, eps)


def reverse(A):
    return A.T[::-1, ::-1]


def block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        k = b.shape[0]
        out[i:i + k, i:i + k] = b
        i += k
    return out


def toeplitz_pattern(a, b, n):
    """Signs of (a + (k-1) b)(a - b)^(k-1), the k x k principal minors of b J + (a-b) I."""
    return tuple(1 if (a + (k - 1) * b) * (a - b) ** (k - 1) > 0 else -1
                 for k in range(1, n + 1))


# ----------------------------------------------------------------------------
# Independent factorizations and minors
# ----------------------------------------------------------------------------

def leading_slogdets(A):
    """(signs, log|minor|) of every leading block of A, by numpy.linalg.slogdet."""
    n = A.shape[-1]
    signs = np.empty(A.shape[:-2] + (n,))
    logs = np.empty(A.shape[:-2] + (n,))
    for k in range(1, n + 1):
        s, l = np.linalg.slogdet(A[..., :k, :k])
        signs[..., k - 1] = s
        logs[..., k - 1] = l
    return signs, logs


def ldl(A):
    """Unpivoted unit-lower LDL^T of a stack (..., n, n): returns (L, d)."""
    U = np.array(A, dtype=float, copy=True)
    n = U.shape[-1]
    L = np.zeros_like(U)
    d = np.empty(U.shape[:-1])
    for k in range(n):
        piv = U[..., k, k]
        d[..., k] = piv
        col = U[..., k:, k] / piv[..., None]
        L[..., k:, k] = col
        U[..., k:, k:] -= col[..., :, None] * U[..., k, None, k:]
    return L, d


def canonical_factor(A):
    """Factor F with A = F D F^T against the canonical diagonal: L sqrt|d|."""
    L, d = ldl(A)
    return L * np.sqrt(np.abs(d))[..., None, :]


def pd_image(A):
    """F F^T for the canonical factor F of A (the Wishart transfer)."""
    F = canonical_factor(A)
    return F @ np.swapaxes(F, -1, -2)


def eta(F):
    """Log-Cholesky coordinates of a stack: log-diagonal, then strict-lower row-major."""
    n = F.shape[-1]
    idx = np.arange(n)
    rows, cols = np.tril_indices(n, -1)
    return np.concatenate([np.log(F[..., idx, idx]), F[..., rows, cols]], axis=-1)


def check_patterns(mats, allowed, what):
    """Every matrix's leading-minor signs form one of the allowed patterns."""
    signs, _ = leading_slogdets(np.asarray(mats))
    allowed = np.asarray(allowed, dtype=float).reshape(-1, signs.shape[-1])
    ok = (signs[:, None, :] == allowed[None, :, :]).all(axis=-1).any(axis=-1)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise CheckError(f"{what}: draw {bad} has leading-minor signs "
                         f"{signs[bad].astype(int).tolist()}")


def check_mean(samples, expected, se, what, z=6.0):
    """The sample mean is within z standard errors of expected, entrywise."""
    mean = np.mean(samples, axis=0)
    excess = np.abs(mean - expected) - z * se
    if np.any(excess > 0):
        raise CheckError(f"{what}: sample mean off by more than {z} standard errors "
                         f"(worst excess {float(excess.max()):.3e})")


def wishart_mean_se(sigma, dof, count):
    """Standard error of the mean of `count` Wishart(dof, sigma) draws, entrywise."""
    var = dof * (sigma ** 2 + np.outer(np.diag(sigma), np.diag(sigma)))
    return np.sqrt(var / count)


# ----------------------------------------------------------------------------
# A fixed NumPy-only kernel that tracks the host's speed
# ----------------------------------------------------------------------------

_G = np.random.default_rng(12345).standard_normal((64, 64))
_PROBE_A = _G @ _G.T + 64 * np.eye(64)


def probe_s(reps=10):
    """Seconds for `reps` Cholesky factorizations and solves at n = 64."""
    t0 = time.perf_counter()
    for _ in range(reps):
        np.linalg.cholesky(_PROBE_A)
        np.linalg.solve(_PROBE_A, _PROBE_A[0])
    return time.perf_counter() - t0


def process_probe_s():
    """Seconds for a fresh interpreter to import NumPy and exit."""
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls for the exit in steps of up to
    # 50 ms, and the reading jumps by those steps. run.py's watchdog stops a
    # run that hangs.
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


# Each probe's reference time: near its fastest readings on this
# benchmark's 2-vCPU host (0.55-0.67 ms for the NumPy probe, 0.11-0.18 s for
# the process probe). A call's time scaled by REF / probe reads as its time
# on a host where the probe takes REF; see README.md. In-process calls use
# the NumPy probe; calls that start an lpmch process use the process probe,
# which tracks process start and imports where the NumPy probe does not.
PROBE_REF_S = {probe_s: 0.65e-3, process_probe_s: 0.15}


def probe_scale(probe, before, after):
    """Factor that turns a time bracketed by two readings of `probe` into
    its time on a host where the probe takes its reference time."""
    return PROBE_REF_S[probe] / math.sqrt(before * after)


def reference_kernel_ms():
    """Milliseconds for 100 Cholesky factorizations and solves at n = 64."""
    return 1000 * probe_s(100)
