"""Dense complex linear algebra on tensor-product spaces: kron and vec,
partial traces, Tr_E after Ad_U on operator stacks, Haar and Ginibre
sampling, von Neumann entropy, and Hermitian/PSD/density checks.

Conventions used everywhere in this package:

* row-major tensor basis: the index of ``|i1 i2 ... in>`` is
  ``i1*d2*...*dn + ... + in`` (numpy ``kron`` order);
* direct-sum blocks on the system factor are concatenated in declaration
  order, row-major within each ``L x R`` block;
* ``vec`` is row-major flattening, so ``vec(A X B) = (A kron B.T) vec(X)``;
* leading axes beyond an operator's own are batch axes, a stack of trials:
  ``kron``, ``partial_trace``, ``tr_e``, ``haar_unitaries``,
  ``ginibre_densities``, ``frobenius``, ``is_hermitian``,
  ``hermitian_part_psd``, ``psd_check`` and ``check_density`` take them,
  and give each member the bits it gets alone.  A single operator gives
  Python scalars; a stack gives arrays;
* a stacked evaluation cuts its members into ``stacks``, whose largest
  arrays hold at most ``STACK_ENTRIES`` complex entries, so its memory
  does not grow with the number of members.

Every function is a pure function of its inputs; RNG state is always
passed explicitly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kron",
    "vec",
    "unvec",
    "partial_trace",
    "tr_e",
    "haar_unitaries",
    "random_haar_unitary",
    "ginibre_densities",
    "random_density",
    "stacks",
    "per_stream",
    "normal_runs",
    "von_neumann_entropy",
    "swap_unitary",
    "psd_tolerance",
    "min_eigenvalue",
    "frobenius",
    "first_failure",
    "is_hermitian",
    "hermitian_part_psd",
    "psd_check",
    "check_density",
]

# Scale-aware PSD acceptance: min eigenvalue >= -PSD_TOL_FACTOR * max(1, ||m||_2).
PSD_TOL_FACTOR = 1e-9
HERM_TOL = 1e-9
# Eigenvalues below this are treated as exact zeros in entropy sums.
ENTROPY_EIG_CUTOFF = 1e-12
# The complex entries the largest arrays of one stacked evaluation may hold
# (see stacks): 512 KB, whatever the number of trials, states or draws.
STACK_ENTRIES = 1 << 15


def kron(*mats: np.ndarray) -> np.ndarray:
    """Tensor product in row-major convention (left factor most significant)
    of the matrices in the last two axes, with the products ``np.kron``
    forms; leading axes broadcast."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        m = np.asarray(m)
        (a, b), (c, d) = out.shape[-2:], m.shape[-2:]
        t = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = t.reshape(t.shape[:-4] + (a * c, b * d))
    return out


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, rows: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if rows is None:
        rows = int(round(math.isqrt(v.size)))
        if rows * rows != v.size:
            raise ValueError(f"cannot unvec length-{v.size} vector to a square matrix")
    return v.reshape(rows, v.size // rows)


def _transpose_last(x: np.ndarray, *perm: int) -> np.ndarray:
    """``x`` with its last ``len(perm)`` axes permuted by ``perm``, after
    its leading (batch) axes."""
    lead = x.ndim - len(perm)
    return x.transpose([*range(lead), *[lead + p for p in perm]])


def partial_trace(m: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep`` (by position).

    ``dims`` are the factor dimensions in row-major order; the result keeps
    the surviving factors in their original order.  The full trace is
    preserved: tr(result) = tr(m).  Leading axes of ``m`` beyond the last
    two are batch axes and are kept.
    """
    dims = tuple(dims)
    keep = tuple(sorted(keep))
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep positions {keep} out of range for {n} factors")
    m = np.asarray(m, dtype=complex)
    batch = m.shape[:-2]
    nb = len(batch)
    t = m.reshape(batch + dims + dims)
    # Trace the discarded axes pairwise, from the highest axis down so that
    # earlier axis numbers stay valid.
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=nb + ax, axis2=nb + ax + (t.ndim - nb) // 2)
    d_keep = math.prod(dims[k] for k in keep) if keep else 1
    return t.reshape(batch + (d_keep, d_keep))


def tr_e(cols: np.ndarray, d_s: int, d_e: int, u: np.ndarray | None = None) -> np.ndarray:
    """``vec Tr_E(U X U^dagger)`` for each column ``vec X`` of a ``(d^2, k)`` stack.

    ``d = d_s * d_e`` and the result is a ``(d_s^2, k)`` stack; with
    ``u=None`` only the environment trace is applied.  No superoperator is
    formed: the cost is one ``(d, d) x (d, d k)`` product plus one
    ``d_s``-batched ``(d_s, d d_e) x (d d_e, k)`` product that applies
    ``U^dagger`` and the trace together.  Leading axes of ``cols`` and
    ``u`` are batch axes.  ``info`` takes the d_a^2 blocks of a state on
    A x S x E as the columns, for the state on A x S after U.
    """
    d = d_s * d_e
    x = np.asarray(cols, dtype=complex)
    batch, n = x.shape[:-2], x.shape[-1]
    if u is None:
        t = x.reshape(batch + (d_s, d_e, d_s, d_e, n))
        return np.einsum("...aebek->...abk", t).reshape(batch + (d_s * d_s, n))
    u = np.asarray(u, dtype=complex)
    # (U X_k)[(s, e), c] laid out as [s, (e, c), k].
    ux = u @ x.reshape(batch + (d, d * n))
    ux = ux.reshape(ux.shape[:-2] + (d_s, d_e * d, n))
    # Tr_E(U X_k U^dagger)[s, t] = sum_(e, c) conj(U)[(t, e), c] (U X_k)[(s, e), c].
    out = u.conj().reshape(u.shape[:-2] + (1, d_s, d_e * d)) @ ux
    return out.reshape(out.shape[:-3] + (d_s * d_s, n))


def haar_unitaries(x: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from standard normal draws ``x`` of shape
    ``(..., 2, dim, dim)``: the QR factor of the complex Ginibre matrix
    ``x[..., 0, :, :] + 1j x[..., 1, :, :]``, with the diagonal phase fix
    that makes the distribution exactly Haar and the output a deterministic
    function of the draws."""
    q, r = np.linalg.qr(x[..., 0, :, :] + 1j * x[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random unitary: ``haar_unitaries`` of one ``(2, dim, dim)``
    normal draw, the real part of the Ginibre matrix and then its imaginary
    part."""
    return haar_unitaries(rng.normal(size=(2, dim, dim)))


def ginibre_densities(x: np.ndarray) -> np.ndarray:
    """Density matrices ``G G^dagger / tr(G G^dagger)`` from standard normal
    draws ``x`` of shape ``(..., 2, dim, rank)``, with ``G`` the Ginibre
    factor ``x[..., 0, :, :] + 1j x[..., 1, :, :]``; leading axes are batch
    axes, and each member gets the bits it gets alone."""
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix of the given rank: ``ginibre_densities`` of one
    ``(2, dim, rank)`` normal draw, the real part of the Ginibre factor and
    then its imaginary part."""
    if rank < 1 or rank > dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    return ginibre_densities(rng.normal(size=(2, dim, rank)))


def stacks(count: int, entries: int) -> list[range]:
    """Consecutive ranges that cover ``range(count)`` in order, each of as
    many items of ``entries`` complex entries as fit in ``STACK_ENTRIES``,
    and at least one item."""
    step, items = max(1, STACK_ENTRIES // entries), range(count)
    return [items[lo : lo + step] for lo in items[::step]]


def per_stream(rngs, draw):
    """``draw(rng)`` of one generator, or of each of a sequence of them,
    stacked along a new leading trial axis."""
    if isinstance(rngs, np.random.Generator):
        return draw(rngs)
    return np.stack([draw(rng) for rng in rngs])


def normal_runs(rngs, *groups) -> list[tuple[np.ndarray, ...]]:
    """Normal draws of the shapes in ``groups``, in stream order, taken by
    one ``normal`` call per stream (``per_stream``) and cut back into a
    tuple of arrays per group.  A generator fills an array from its stream
    with no regard to array boundaries, so each array equals the draw of
    its own shape in sequence."""
    sizes = [math.prod(shape) for group in groups for shape in group]
    flat = per_stream(rngs, lambda rng: rng.normal(size=sum(sizes)))
    parts, lead = iter(np.split(flat, np.cumsum(sizes)[:-1], axis=-1)), flat.shape[:-1]
    return [tuple(next(parts).reshape(lead + shape) for shape in group) for group in groups]


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in nats, with 0 log 0 := 0.

    Leading axes beyond the last two are batch axes: one stacked
    ``eigvalsh`` gives an array of entropies.  A single matrix gives a float.
    """
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    if w.ndim == 1:
        w = w[w > ENTROPY_EIG_CUTOFF]
        return float(-(w * np.log(w)).sum())
    # eigvalsh sorts ascending, so the eigenvalues kept form a suffix.  Rows
    # are summed in stacks of equal suffix length, so that each entropy is
    # the one its matrix gives alone, bit for bit.
    kept = (w > ENTROPY_EIG_CUTOFF).sum(axis=-1)
    out = np.empty(kept.shape)
    for k in set(kept.flat):
        rows = kept == k
        tail = w[rows][:, w.shape[-1] - k:]
        out[rows] = -(tail * np.log(tail)).sum(axis=-1)
    return out


def swap_unitary(d: int) -> np.ndarray:
    """Swap operator on a d x d bipartite space: |a,b> -> |b,a>."""
    u = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            u[b * d + a, a * d + b] = 1.0
    return u


def psd_tolerance(m: np.ndarray) -> float:
    """Scale-aware tolerance: a matrix counts as PSD down to -psd_tolerance(m)."""
    norm = np.linalg.norm(np.asarray(m), 2)
    return PSD_TOL_FACTOR * max(1.0, norm)


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=complex)).min())


def _scalar(x):
    """A 0-d result as a Python scalar; a stack of results as it is."""
    return x.item() if x.ndim == 0 else x


def frobenius(x: np.ndarray, axes: int = 2):
    """The Frobenius norm of each array in the last ``axes`` axes of ``x``,
    with the bits ``np.linalg.norm`` gives that array alone.

    ``np.linalg.norm`` of a whole array is the square root of a BLAS dot
    product of its real parts plus one of its imaginary parts; a norm taken
    over axes sums in another order, and its last bits differ.  A stack
    takes the same dot products, as ``(1, N) @ (N, 1)`` products.
    """
    x = np.asarray(x)
    if x.ndim == axes:
        return np.linalg.norm(x)
    # The size, not -1, so that a stack of empty arrays has norms 0.
    flat = x.reshape(x.shape[: x.ndim - axes] + (1, math.prod(x.shape[x.ndim - axes :])))
    if np.iscomplexobj(flat):
        re, im = flat.real, flat.imag
        sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    else:
        sq = flat @ flat.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def first_failure(bad, name: str) -> str | None:
    """The name of the first member flagged in ``bad``: ``name`` itself for
    a single check, ``"<name> of trial <k>"`` for a stack, with k counted
    from the stack's first member, and None when nothing is flagged."""
    bad = np.asarray(bad)
    if not bad.any():
        return None
    return name if bad.ndim == 0 else f"{name} of trial {np.flatnonzero(bad)[0]}"


def _with_adjoint(m: np.ndarray, op) -> np.ndarray:
    """``op(m^dag, m)`` written into a new C-contiguous ``m^dag``, at least in
    float precision: the bits of ``op(m.conj().T, m)`` at under half the
    cost at n = 512, with no strided operand and no further array."""
    h = np.array(m.swapaxes(-1, -2), dtype=np.result_type(m, 1.0), order="C")
    return op(np.conjugate(h, out=h), m, out=h)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^dag) / 2`` in a new array, with the bits of that formula."""
    h = _with_adjoint(m, np.add)
    h /= 2
    return h


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL):
    """Whether ``||m - m^dag||_F <= tol max(1, ||m||_F)``, for each matrix of
    a stack."""
    m = np.asarray(m)
    skew = frobenius(_with_adjoint(m, np.subtract))
    # tol max(1, n) as max(tol, tol n): the same bound, with no ufunc call.
    return _scalar((skew <= tol) | (skew <= tol * frobenius(m)))


def hermitian_part_psd(m: np.ndarray):
    """Whether the Hermitian part of ``m`` is PSD down to the scale-aware
    tolerance, and its least eigenvalue, for each matrix of a stack.

    One ``eigvalsh`` of the Hermitian part gives both the smallest
    eigenvalue and the scale ``max |lambda|``, its spectral norm.
    """
    w = np.linalg.eigvalsh(_hermitian_part(np.asarray(m)))
    low = w[..., 0]
    ok = low >= -PSD_TOL_FACTOR * np.abs(w).max(axis=-1, initial=1.0)
    return _scalar(ok), _scalar(low)


def psd_check(m: np.ndarray):
    """Whether ``m`` is Hermitian and PSD down to the scale-aware tolerance
    (``is_hermitian`` and ``hermitian_part_psd``), and the least eigenvalue
    of its Hermitian part, for each matrix of a stack."""
    psd, low = hermitian_part_psd(m)
    return is_hermitian(m) & psd, low


def check_density(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; returns the array.

    A stack is validated at once; the error names the first member that
    fails, with the first check that member fails, as it would alone.
    """
    rho = np.asarray(rho, dtype=complex)
    psd, _ = psd_check(rho)  # also False when rho is not Hermitian
    tr = rho.trace(axis1=-2, axis2=-1)
    bad_trace = abs(tr - 1.0) > 1e-8
    ok = psd & ~bad_trace
    if ok.all() if ok.ndim else ok:
        return rho
    herm = np.asarray(is_hermitian(rho))
    fails = np.stack([~herm, bad_trace, ~np.asarray(psd)], axis=-1)
    bad = fails.any(axis=-1)
    who = first_failure(bad, name)
    k = tuple(np.argwhere(bad)[0])  # () for a single state
    check = int(np.argmax(fails[k]))
    if check == 0:
        raise ValueError(f"{who} is not Hermitian")
    if check == 1:
        raise ValueError(f"{who} has trace {tr[k]}, expected 1")
    raise ValueError(f"{who} is not positive semidefinite")
