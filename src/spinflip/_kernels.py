"""Hot numeric kernels: field synthesis, RK4 propagators, Euler-Maruyama.

Everything here is plain numpy.  The drive fields have one kernel,
:func:`b1_b2`, over an array of times, guard-window points included; the
only scalar evaluation on math functions is :func:`_denominator`, the probe
of the singularity bisection.  The two RK4 equations, Bloch (real 3x3, with
dephasing and either source-noise channel) and Schrodinger (complex 2x2),
are linear with coefficients that depend on t alone, so every RK4 step is a
transfer matrix built from fields evaluated on a block's node grid at once,
and a block's states are its prefix products, from a work-efficient scan
(see :func:`_rk4_linear`).  Matrices are stored as component stacks
(d, d, n, ...) and multiplied by one elementwise einsum, :func:`_mul`; no
kernel calls BLAS, so its bits do not depend on the OpenBLAS core.  The one
Euler-Maruyama kernel, :func:`em_final`, runs a lock-step loop over a (noise
strength, trajectory) array of complex spinors: a noise-strength grid runs
as one ensemble on shared two-point increments, which arrive as step-major
uint8 byte rows, 8 steps of every trajectory per row.  A byte selects one
of 256 products of 8 step matrices, so each row gets a byte table, the
16 x 16 products of two 16-entry nibble tables, and a trajectory advances
8 steps by one gather from it and one complex multiply-add.  A block's step
matrices come as one stack with the (nibble, strength) batch as its
innermost axis, so a nibble table is built by elementwise 2x2 arithmetic
along that long axis, and a last byte of p < 8 steps gets its 2^p-entry
table the same way.  States are rescaled every RENORM_EVERY steps of the
global step index, and only the final fidelities are returned.

Every field and propagator kernel takes the TrajectoryDesign first and reads
its cubics (rad/ns^j), tf, B0 and material; the Bloch noise channel comes by
name, or None for no noise.  Error signalling is NaN poisoning: a
non-cancellable field-synthesis singularity yields NaN fields, which wrappers
in :mod:`spinflip.fields` and the propagator modules convert to typed errors.

Numerical guards (times in units of tf):
  EDGE_FRAC   open-interval clamp; inside it the exact B1 = B2 = 0 endpoint
              limits are returned (the denominator diverges faster than the
              numerators there).
  DEN_GUARD   |alpha cot(theta) - beta sin(phi)| < DEN_GUARD * alpha switches
              to the L'Hopital branch (simple zero over simple zero).
  LHOP_STEP   central-difference step for the L'Hopital ratio.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .constants import HBAR, MU_B

EDGE_FRAC = 1e-6
DEN_GUARD = 1e-6
LHOP_STEP = 1e-6
NONCANCEL_TOL = 1e-6

# Size in bytes of the largest array of an RK4 block: its generator on the
# (d, d, 2L+1, *batch) node grid.  The L-step arrays are half of it, so a
# block keeps a few hundred KB alive whatever the step count: 909 steps of
# the real 3x3 Bloch matrix, 1023 of the complex 2x2 spin matrix, 302 of a
# 3-strength Bloch batch (_block_steps).  A larger budget raises the peak
# RSS of the one-point validations; much less, and the per-call numpy
# overhead, paid while holding the interpreter lock, starts to dominate the
# Bloch sweeps.  A larger batch gets fewer steps per block, down to the
# floor BLOCK_MIN_STEPS: a 20-strength Bloch batch runs 256-step blocks on
# 0.74 MB of generator nodes, where the budget alone gave it 45 steps.  The
# Euler-Maruyama byte tables are built BLOCK_BYTES per noise strength at a
# time: 8 byte rows of 16 KiB, from the nibble tables of those 8 rows alone
# (16 KiB per strength), so the temporaries stay small.
BLOCK_BYTES = 1 << 17
BLOCK_MIN_STEPS = 256
# Euler-Maruyama steps between renormalizations of the states, whole byte
# rows.  The step is linear, so rescaling does not move |psi_1| / |psi| in
# exact arithmetic; the norms drift only by O(dt) factors per step.
RENORM_EVERY = 256


def poly3(c, t):
    return ((c[3] * t + c[2]) * t + c[1]) * t + c[0]


def dpoly3(c, t):
    return (3.0 * c[3] * t + 2.0 * c[2]) * t + c[1]


def field_parts(design, t):
    """Numerators of B1, B2, the shared denominator factor (no eta, no xi)
    and the numerators' scale, at a time or an array of times.

    Returns (n1, n2, d0, scale) with d0 = alpha*cot(theta) - beta*sin(phi),
    B1 = n1 / (eta (1+xi_x) d0), B2 = n2 / (eta (1+xi_y) d0), and
    scale = |beta thetad| + |beta (phid + eta B0)|, which the numerators at
    a root of d0 must be small against to cancel.
    """
    tc, pc, m = design.theta.coeffs, design.phi.coeffs, design.mat
    alpha, beta = m.alpha, m.beta
    th = poly3(tc, t)
    ph = poly3(pc, t)
    cot, sph, cph = np.cos(th) / np.sin(th), np.sin(ph), np.cos(ph)
    thd, drive = dpoly3(tc, t), dpoly3(pc, t) + m.eta * design.b0
    n1 = -beta * thd * cot * cph + beta * drive * sph
    n2 = alpha * thd * cot * sph + alpha * drive * cph - beta * thd
    d0 = alpha * cot - beta * sph
    return n1, n2, d0, np.abs(beta * thd) + np.abs(beta * drive)


def b1_b2(design, ts, xi=True):
    """Effective drive fields (B1, B2) in T at an array of times.

    Points inside the endpoint clamp get the exact zero limits.  Points
    inside the denominator guard window get the L'Hopital value, or NaN
    when their numerators do not cancel.  xi=False drops the xi factors.
    """
    ts = np.asarray(ts, dtype=float)
    m, tf = design.mat, design.tf
    fx, fy = (m.eta * (1.0 + m.xi_x), m.eta * (1.0 + m.xi_y)) if xi else (m.eta, m.eta)
    edge = EDGE_FRAC * tf
    inside = (ts >= edge) & (ts <= tf - edge)
    with np.errstate(all="ignore"):
        n1, n2, d0, scale = field_parts(design, ts)
        b1 = np.where(inside, n1 / (fx * d0), 0.0)
        b2 = np.where(inside, n2 / (fy * d0), 0.0)
        guard = np.flatnonzero(inside & (np.abs(d0) < DEN_GUARD * m.alpha))
        if guard.size:
            t, h = ts[guard], LHOP_STEP * tf
            n1p, n2p, d0p, _ = field_parts(design, t + h)
            n1m, n2m, d0m, _ = field_parts(design, t - h)
            dd = d0p - d0m
            tol = NONCANCEL_TOL * scale[guard]
            bad = (np.abs(n1[guard]) > tol) | (np.abs(n2[guard]) > tol) | (dd == 0.0)
            b1[guard] = np.where(bad, np.nan, (n1p - n1m) / (fx * dd))
            b2[guard] = np.where(bad, np.nan, (n2p - n2m) / (fy * dd))
    return b1, b2


def _xyz(design, ts):
    b1, b2 = b1_b2(design, ts, xi=False)
    return b2, (design.mat.alpha / design.mat.beta) * b1, design.b0 + b1


def _denominator(t, tc, pc, alpha, beta):
    """alpha cot(theta) - beta sin(phi) at one instant, as denominator_grid."""
    th = poly3(tc, t)
    return alpha * math.cos(th) / math.sin(th) - beta * math.sin(poly3(pc, t))


def denominator_grid(design, ts):
    th, m = poly3(design.theta.coeffs, ts), design.mat
    return m.alpha * np.cos(th) / np.sin(th) - m.beta * np.sin(poly3(design.phi.coeffs, ts))


def _mul(a, b):
    """Products of two (d, d, ...) component stacks, elementwise over the stack."""
    return np.einsum("ik...,kj...->ij...", a, b)


def _prefix_products(m):
    """The prefix products M_j ... M_0 of a (d, d, L, ...) stack along its
    third axis, in place: the pair products M_{2i+1} M_{2i}, their prefix
    products by the same rule (the odd positions), then M_{2i} times the
    prefix product at 2i - 1 (the even ones).  About 2L products in about
    2 log2 L calls, where a Hillis-Steele scan takes L log2 L."""
    n = m.shape[2]
    if n > 1:
        pairs = _prefix_products(_mul(m[:, :, 1::2], m[:, :, :n - 1:2]))
        m[:, :, 2::2] = _mul(m[:, :, 2::2], pairs[:, :, :(n - 1) // 2])
        m[:, :, 1::2] = pairs
    return m


def _block_steps(y):
    """Steps per RK4 block for the (d, *batch) state y: as many as keep the
    block's (d, d, 2L+1, *batch) generator nodes within BLOCK_BYTES, and
    at least BLOCK_MIN_STEPS."""
    return max(BLOCK_MIN_STEPS, (BLOCK_BYTES // (y.itemsize * y.size * len(y)) - 1) // 2)


def _rk4_linear(gen, y0, tf, steps, normalize=False, final=False):
    """Fixed-step RK4 for the linear system y' = A(t) y on [0, tf].

    A does not depend on y, so the RK4 step k is y -> M_k y with

        M = I + dt/6 (A1 + 2 K2 + 2 K3 + K4),
        K2 = A2 (I + dt/2 A1),  K3 = A2 (I + dt/2 K2),  K4 = A4 (I + dt K3),

    A1, A2, A4 taken at k dt, k dt + dt/2 and k dt + dt.  y0 is (*batch, d),
    batch () or (G,); A is real or complex.  Matrices are component stacks:
    gen(t) returns A at n times as (d, d, n, *batch), and each product is one
    _mul over a stack.  A block of L = _block_steps(y) steps evaluates gen
    once, on its 2L+1 nodes j dt/2 (step k's A4 is step k+1's A1).  Inside a
    block the prefix products M_j ... M_0 come from _prefix_products (about
    2L products); the block's last state seeds the next block.

    With normalize (batch () only), every state is divided by its norm, as a
    loop that renormalizes after each step does, and the largest one-step
    |norm - 1| (the ratio of successive norms) is returned as the drift with
    the (steps + 1, *batch, d) trajectory.  With final, a block's product is
    formed pairwise (about L products, half the scan's), and the final state
    alone is returned; normalize divides only it by its norm.  A drift that
    was not measured, with final or without normalize, is NaN.
    """
    y = np.moveaxis(y0, -1, 0)
    traj = None if final else np.empty((steps + 1,) + y0.shape, dtype=y.dtype)
    dt = tf / steps
    drift = 0.0 if normalize and not final else math.nan
    block = _block_steps(y)
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        with np.errstate(over="ignore", invalid="ignore"):
            a = gen(np.arange(2 * start, 2 * stop + 1) * (0.5 * dt))
            a1, a2, a4 = a[:, :, :-1:2], a[:, :, 1::2], a[:, :, 2::2]
            k = a2 + 0.5 * dt * _mul(a2, a1)
            m = a1 + 2.0 * k
            k = a2 + 0.5 * dt * _mul(a2, k)
            m += 2.0 * k
            m += a4 + dt * _mul(a4, k)
            del a, a1, a2, a4
            m *= dt / 6.0
            m[np.diag_indices(len(m))] += 1.0
            if final:  # later steps on the left; an odd last one folds into the one before
                while m.shape[2] > 1:
                    if m.shape[2] % 2:
                        m[:, :, -2] = _mul(m[:, :, -1], m[:, :, -2])
                        m = m[:, :, :-1]
                    m = _mul(m[:, :, 1::2], m[:, :, ::2])
                y = _mul(m[:, :, 0], y[:, None])[:, 0]
                continue
            ys = _mul(_prefix_products(m), y[:, None, None])[:, 0]
        if normalize:
            norms = np.linalg.norm(ys, axis=0)
            ratios = norms / np.concatenate(([1.0], norms[:-1]))
            drift = max(drift, float(np.abs(ratios - 1.0).max()))
            ys = ys / norms
        traj[start + 1:stop + 1] = np.moveaxis(ys, 0, -1)
        y = ys[:, -1]
    if final:  # norm reduces along an axis; with none it would call BLAS dot
        return np.moveaxis(y / np.linalg.norm(y, axis=0) if normalize else y, 0, -1), drift
    traj[0] = y0
    return traj, drift


def _spin_generator(x, y, z, mat):
    """A = -(i/hbar) pref [[Z, X+iY], [X-iY, -Z]], pref = g mu_B / 2 of mat, per
    entry of the field arrays, a complex (2, 2, *fields) stack: [[i w, -v + i u],
    [v + i u, -i w]] with (u, v, w) = -(pref/hbar) (X, Y, Z)."""
    c, pref = -1.0 / HBAR, 0.5 * mat.g * MU_B
    u, v, w = (c * (pref * np.asarray(f, dtype=float)) for f in (x, y, z))
    return np.array([[1j * w, -v + 1j * u], [v + 1j * u, -1j * w]])


def rk4_spin(design, psi0, steps, final=False):
    """RK4 Schrodinger propagation under the synthesized fields.

    States are renormalized each step; the maximum pre-renormalization drift
    |norm - 1| is returned alongside the (steps+1, 2) complex trajectory, or
    with final the (2,) final state.
    """
    def gen(t):
        return _spin_generator(*_xyz(design, t), design.mat)
    return _rk4_linear(gen, np.asarray(psi0, dtype=complex), design.tf, steps,
                       normalize=True, final=final)


def rk4_bloch(design, gamma, lam2, channel, r0, steps, final=False):
    """RK4 Bloch propagation: dephasing at rate gamma plus source-noise decay
    -(lam2 eta^2/2)(|a|^2 I - a a^T), Z' = Z - B0.  channel None has none;
    "as-printed" keeps the diagonal of it with a = (X, Y, Z'); "x-only" is
    the full matrix with a = (0, Y, Z'), the Bloch form of the double
    commutator with the x-only noise operator.  Returns the (steps+1, 3)
    trajectory from r0, or with final its (3,) final state alone, and a NaN
    drift, as rk4_spin returns (states, drift).  A (G,) lam2 is G noise
    strengths in one batch: (steps+1, G, 3) or (G, 3).
    """
    def gen(t):
        eta = design.mat.eta
        x, y, z = (f.reshape((-1,) + (1,) * np.ndim(lam2))  # to broadcast against lam2
                   for f in _xyz(design, t))
        a = np.empty((3, 3, len(t)) + np.shape(lam2))
        a[0, 1], a[0, 2] = eta * z, -eta * y
        a[1, 0], a[1, 2] = -eta * z, eta * x
        a[2, 0], a[2, 1] = eta * y, -eta * x
        rates = (0.0,) * 3
        if channel is not None:
            zp = z - design.b0
            ke = 0.5 * lam2 * eta * eta
            if channel == "as-printed":
                rates = (ke * (y * y + zp * zp), ke * (x * x + zp * zp),
                         ke * (x * x + y * y))
            else:
                rates = ke * (y * y + zp * zp), ke * zp * zp, ke * y * y
                a[1, 2] += ke * y * zp
                a[2, 1] += ke * y * zp
        for i, rate in enumerate(rates):
            a[i, i] = -4.0 * gamma - rate
        return a
    r0 = np.broadcast_to(np.asarray(r0, dtype=float), np.shape(lam2) + (3,))
    return _rk4_linear(gen, r0, design.tf, steps, final=final)


def _em_matrices(x, y, z, b0, mat, lam, dt):
    """em_final's M = D -+ sqrt(dt) S from rk4_spin's complex generators, for
    (k, n) field arrays (step k of n groups of steps): a (k, 2, 2, 2, n G)
    stack of row, column and bit, with the group-major batch innermost."""
    a, s = (np.moveaxis(g, 2, 0)[:, :, :, None, :, None]
            for g in (_spin_generator(x, y, z, mat),
                      _spin_generator(np.zeros_like(y), y, z - b0, mat)))
    decay = 1.0 - 0.5 * dt * (0.5 * mat.g * MU_B / HBAR) ** 2 * (
        (y * y + (z - b0) ** 2)[..., None] * (lam * lam))
    m = (np.eye(2)[:, :, None, None, None] * decay[:, None, None, None] + dt * a
         + (np.sqrt(dt) * lam * np.array([-1.0, 1.0])[:, None])[:, None] * s)
    return m.reshape(m.shape[:4] + (m.shape[4] * m.shape[5],))


def _products(m):
    """(2, 2, 2^k, N) products M_{k-1} ... M_0 of a (k, 2, 2, 2, N) stack of
    k steps' matrices, indexed by their bits, MSB first: elementwise complex
    2x2 arithmetic along the long batch axis N."""
    t = m[0]
    for later in m[1:]:  # the later step's bit is the low digit
        out = later[:, 0, None, None] * t[None, 0, :, :, None]
        out += later[:, 1, None, None] * t[None, 1, :, :, None]
        t = out.reshape(2, 2, -1, m.shape[-1])
    return t


def _compose(later, earlier, out, tmp):
    """Every product later[..., a] @ earlier[..., b] of two (R, 2, 2, G, 16)
    stacks of complex 2x2 matrices, elementwise, into out as (R, 2, 2, G, 256)
    with index 16 b + a: the later matrix's index is the low digit."""
    np.multiply(later[:, :, 0, None, :, None], earlier[:, None, 0, ..., None], out=out)
    np.multiply(later[:, :, 1, None, :, None], earlier[:, None, 1, ..., None], out=tmp)
    return np.add(out, tmp, out=out).reshape(out.shape[:4] + (-1,))


def _byte_tables(mats, fields, rows, tabs, idx):
    """(table, index row) per byte row of a block, from its field arrays and
    mats(x, y, z), _em_matrices of (k, n) fields: 256 entries per whole byte,
    len(idx) rows at a time into tabs, from their two nibble tables; then 2^p
    for a last byte of p steps."""
    whole, part = divmod(len(fields[0]), 8)
    g = tabs.shape[4]
    m = mats(*(f[:8 * whole].reshape(-1, 4).T for f in fields))
    for row in range(0, whole, len(idx)):
        r = min(len(idx), whole - row)
        nib = _products(m[..., 2 * g * row:2 * g * (row + r)]).reshape(2, 2, 16, r, 2, g)
        nib = np.ascontiguousarray(nib.transpose(3, 4, 0, 1, 5, 2))  # (r, nibble, 2, 2, G, 16)
        np.copyto(idx[:r], rows[row:row + r])
        yield from zip(_compose(nib[:, 1], nib[:, 0], tabs[0, :r], tabs[1, :r]), idx[:r])
    if part:
        np.right_shift(rows[whole], 8 - part, out=idx[0])
        yield np.moveaxis(_products(mats(*(f[8 * whole:, None] for f in fields))), 2, -1), idx[0]


def em_final(design, lams, psi0, bits, steps):
    """Final fidelities |psi_1(tf)| of Euler-Maruyama ensembles under the
    x-only noise operator, a (len(lams), n_traj) array: one row per noise
    strength, every trajectory in lock step on the same increments.

    bits yields step-major (c, n_traj) uint8 blocks, ceil(steps / 8) rows in
    all; a row holds 8 steps, MSB first, bit 1 giving dW = +sqrt(dt), bit 0
    -sqrt(dt).  A step of strength lam is psi <- (D + dW S) psi with

        D = (1 - kappa lam^2 dt / 2) I - (i dt / hbar) H,   S = -(i lam / hbar) H',

    H' = H(0, Y, Z') and kappa = (pref/hbar)^2 (Y^2 + Z'^2), pref = g mu_B / 2,
    since H'^2 = pref^2 (Y^2 + Z'^2) I.  A byte applies its table entry
    M_7 ... M_0 of M = D +- sqrt(dt) S: the same 8 steps, reassociated.
    All arithmetic is elementwise, so each row equals its one-strength run,
    each trajectory its run alone, and any blocking gives the same bits.
    """
    lam = np.asarray(lams, dtype=float)
    dt = design.tf / steps
    mats = functools.partial(_em_matrices, b0=design.b0, mat=design.mat, lam=lam, dt=dt)
    done = 0
    for block in bits:
        if done == 0:  # buffers for the whole call
            shape = (2, lam.size, block.shape[1])
            psi = np.broadcast_to(np.asarray(psi0, dtype=complex)[:, None, None], shape).copy()
            entry, mag = np.empty((2,) + shape, dtype=complex), np.empty(shape)
            idx = np.empty((BLOCK_BYTES // (256 * 4 * 16), shape[2]), dtype=np.intp)
            tabs = np.empty((2, len(idx), 2, 2, lam.size, 16, 16), dtype=complex)
        ts = np.arange(8 * done, min(8 * (done + len(block)), steps)) * dt
        fields = _xyz(design, ts)
        for k, (table, index) in enumerate(_byte_tables(mats, fields, block, tabs, idx), done + 1):
            np.take(table, index, axis=-1, out=entry, mode="clip")  # "raise" buffers out
            np.multiply(entry, psi, out=entry)
            np.add(entry[:, 0], entry[:, 1], out=psi)
            if 8 * k % RENORM_EVERY == 0:  # the float view takes the real norms uncast
                np.hypot(*np.abs(psi, out=mag), out=mag[0])
                psi.view(float).reshape(shape + (2,))[...] /= mag[0, ..., None]
        done += len(block)
    return np.abs(psi[1]) / np.hypot(*np.abs(psi))
