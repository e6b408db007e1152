"""Hot numeric kernels: field synthesis, RK4 propagators, Euler-Maruyama.

Everything here is plain numpy.  The drive fields have one kernel,
:func:`b1_b2`, over an array of times, guard-window points included; the
only scalar evaluation on math functions is :func:`_denominator`, the probe
of the singularity bisection.  The two RK4 equations, Bloch (3x3, with
dephasing and either source-noise channel) and Schrodinger (run on (Re psi,
Im psi) as a 4x4), are real and linear with coefficients that depend on t
alone, so every RK4 step is a real transfer matrix built from fields
evaluated on all stage times at once (see :func:`_rk4_linear`).  The one
Euler-Maruyama kernel, :func:`em_final`, runs a lock-step loop over a (noise
strength, trajectory) array: a noise-strength grid runs as one ensemble on
shared increments, which arrive as step-major (steps, n_traj) blocks, one
contiguous row of increments per step.  It too runs on the real 4-vector
(Re psi0, Im psi0, Re psi1, Im psi1): each block's real 4x8 step matrices
[D | S] (drift and noise) come from one field evaluation on its part of the
step grid, and a step is one elementwise product (dW y) and one batched
matmul between two state buffers allocated once per call.  The linear step
needs no renormalization to keep |psi_1| / |psi|, so states are rescaled
every RENORM_EVERY steps of the global step index and at t_f, and only the
final fidelities are returned.

Angle cubics enter as raw coefficient arrays (rad/ns^j); material parameters
as scalars; the Bloch noise channel by name, or None for no noise.  Error
signalling is NaN poisoning: a non-cancellable field-synthesis singularity
yields NaN fields, which wrappers in :mod:`spinflip.fields` and the
propagator modules convert to typed errors.

Numerical guards (times in units of tf):
  EDGE_FRAC   open-interval clamp; inside it the exact B1 = B2 = 0 endpoint
              limits are returned (the denominator diverges faster than the
              numerators there).
  DEN_GUARD   |alpha cot(theta) - beta sin(phi)| < DEN_GUARD * alpha switches
              to the L'Hopital branch (simple zero over simple zero).
  LHOP_STEP   central-difference step for the L'Hopital ratio.
"""

from __future__ import annotations

import math

import numpy as np

EDGE_FRAC = 1e-6
DEN_GUARD = 1e-6
LHOP_STEP = 1e-6
NONCANCEL_TOL = 1e-6

# Size in bytes of one (steps, d, d) array of the RK4 transfer-matrix scan;
# a block holds as many steps as fit.  A block keeps at most about eight such
# arrays alive, so memory stays near 1 MB whatever the step count: 1024 steps
# of the real 4x4 spin matrix, about 1800 of the real 3x3 Bloch matrix.
# A larger budget raises the peak RSS of the one-point validations; much
# less, and the per-call numpy overhead, paid while holding the interpreter
# lock, starts to dominate the Bloch sweeps.
BLOCK_BYTES = 1 << 17
# Euler-Maruyama steps between renormalizations of the states.  The step is
# linear, so rescaling does not move |psi_1| / |psi| in exact arithmetic;
# the norms drift only by O(dt) factors per step, far from overflow.
RENORM_EVERY = 256


def poly3(c, t):
    return ((c[3] * t + c[2]) * t + c[1]) * t + c[0]


def dpoly3(c, t):
    return (3.0 * c[3] * t + 2.0 * c[2]) * t + c[1]


def field_parts(t, tc, pc, b0, alpha, beta, eta):
    """Numerators of B1, B2, the shared denominator factor (no eta, no xi)
    and the numerators' scale, at a time or an array of times.

    Returns (n1, n2, d0, scale) with d0 = alpha*cot(theta) - beta*sin(phi),
    B1 = n1 / (eta (1+xi_x) d0), B2 = n2 / (eta (1+xi_y) d0), and
    scale = |beta thetad| + |beta (phid + eta B0)|, which the numerators at
    a root of d0 must be small against to cancel.
    """
    th = poly3(tc, t)
    ph = poly3(pc, t)
    cot, sph, cph = np.cos(th) / np.sin(th), np.sin(ph), np.cos(ph)
    thd, drive = dpoly3(tc, t), dpoly3(pc, t) + eta * b0
    n1 = -beta * thd * cot * cph + beta * drive * sph
    n2 = alpha * thd * cot * sph + alpha * drive * cph - beta * thd
    d0 = alpha * cot - beta * sph
    return n1, n2, d0, np.abs(beta * thd) + np.abs(beta * drive)


def b1_b2(ts, tc, pc, tf, b0, alpha, beta, eta, xi_x, xi_y):
    """Effective drive fields (B1, B2) in T at an array of times.

    Points inside the endpoint clamp get the exact zero limits.  Points
    inside the denominator guard window get the L'Hopital value, or NaN
    when their numerators do not cancel.
    """
    ts = np.asarray(ts, dtype=float)
    fx, fy = eta * (1.0 + xi_x), eta * (1.0 + xi_y)
    edge = EDGE_FRAC * tf
    inside = (ts >= edge) & (ts <= tf - edge)
    with np.errstate(all="ignore"):
        n1, n2, d0, scale = field_parts(ts, tc, pc, b0, alpha, beta, eta)
        b1 = np.where(inside, n1 / (fx * d0), 0.0)
        b2 = np.where(inside, n2 / (fy * d0), 0.0)
        guard = np.flatnonzero(inside & (np.abs(d0) < DEN_GUARD * alpha))
        if guard.size:
            t, h = ts[guard], LHOP_STEP * tf
            n1p, n2p, d0p, _ = field_parts(t + h, tc, pc, b0, alpha, beta, eta)
            n1m, n2m, d0m, _ = field_parts(t - h, tc, pc, b0, alpha, beta, eta)
            dd = d0p - d0m
            tol = NONCANCEL_TOL * scale[guard]
            bad = (np.abs(n1[guard]) > tol) | (np.abs(n2[guard]) > tol) | (dd == 0.0)
            b1[guard] = np.where(bad, np.nan, (n1p - n1m) / (fx * dd))
            b2[guard] = np.where(bad, np.nan, (n2p - n2m) / (fy * dd))
    return b1, b2


def _xyz(ts, tc, pc, tf, b0, alpha, beta, eta):
    b1, b2 = b1_b2(ts, tc, pc, tf, b0, alpha, beta, eta, 0.0, 0.0)
    return b2, (alpha / beta) * b1, b0 + b1


def _denominator(t, tc, pc, alpha, beta):
    """alpha cot(theta) - beta sin(phi) at one instant, as denominator_grid."""
    th = poly3(tc, t)
    return alpha * math.cos(th) / math.sin(th) - beta * math.sin(poly3(pc, t))


def denominator_grid(ts, tc, pc, alpha, beta):
    th = poly3(tc, ts)
    return alpha * np.cos(th) / np.sin(th) - beta * np.sin(poly3(pc, ts))


def _rk4_linear(gen, y0, tf, steps, normalize=False, final=False):
    """Fixed-step RK4 for the linear system y' = A(t) y on [0, tf].

    gen(t) returns A at an array of times, shape (len(t), d, d).  A does not
    depend on y, so the RK4 step k is y -> M_k y with

        M = I + dt/6 (A1 + 2 K2 + 2 K3 + K4),
        K2 = A2 (I + dt/2 A1),  K3 = A2 (I + dt/2 K2),  K4 = A4 (I + dt K3),

    A1, A2, A4 taken at k dt, k dt + dt/2 and k dt + dt.  Steps run in
    blocks of BLOCK_BYTES per (steps, d, d) array.  Inside a block the prefix
    products M_j ... M_0 come from a Hillis-Steele scan (log2 of the block
    length batched matmuls); the block's last state seeds the next block.

    With normalize, every state is divided by its norm, as a loop that
    renormalizes after each step does, and the largest one-step |norm - 1|
    (the ratio of successive norms) is returned as the drift; else 0.0.
    A and y are real and y0 is (d,).  Returns the (steps + 1, d) trajectory
    and the drift.  With final, a block's product is formed pairwise (half
    the scan's matmuls), and the final (d,) state alone is returned, with a
    NaN drift; normalize then divides only it by its norm.
    """
    y = np.asarray(y0, dtype=float)
    d = len(y)
    traj = None if final else np.empty((steps + 1, d))
    eye = np.eye(d)
    dt = tf / steps
    drift = math.nan if final else 0.0
    block = BLOCK_BYTES // y.itemsize // d ** 2
    for start in range(0, steps, block):
        t = np.arange(start, min(start + block, steps)) * dt
        with np.errstate(over="ignore", invalid="ignore"):
            # m gathers A1 + 2 K2 + 2 K3 + K4 term by term, so that at most
            # about eight (len(t), d, d) arrays are alive at once
            a1, a2 = gen(t), gen(t + 0.5 * dt)
            k = a2 + 0.5 * dt * (a2 @ a1)
            m = a1 + 2.0 * k
            k = a2 + 0.5 * dt * (a2 @ k)
            m += 2.0 * k
            del a1, a2
            a4 = gen(t + dt)
            m += a4 + dt * (a4 @ k)
            m = eye + dt / 6.0 * m
            if final:  # later steps on the left; an odd last one folds into the one before
                while len(m) > 1:
                    if len(m) % 2:
                        m[-2] = m[-1] @ m[-2]
                        m = m[:-1]
                    m = m[1::2] @ m[::2]
                y = m[0] @ y
                continue
            span = 1
            while span < len(t):
                m[span:] = m[span:] @ m[:-span]
                span *= 2
            ys = m @ y
        if normalize:
            norms = np.linalg.norm(ys, axis=1)
            ratios = norms / np.concatenate(([1.0], norms[:-1]))
            drift = max(drift, float(np.abs(ratios - 1.0).max()))
            ys = ys / norms[:, None]
        traj[start + 1:start + 1 + len(t)] = ys
        y = ys[-1]
    if final:
        return (y / np.linalg.norm(y) if normalize else y), drift
    traj[0] = y0
    return traj, drift


def _spin_generator(x, y, z, pref, hbar):
    """A = -(i/hbar) pref [[Z, X+iY], [X-iY, -Z]] as a real 4x4 per entry of
    the field arrays: [[Re A, -Im A], [Im A, Re A]] on the interleaved
    (Re psi0, Im psi0, Re psi1, Im psi1), the real view of a complex state.

    With (u, v, w) = -(pref/hbar) (X, Y, Z), A = [[i w, -v + i u], [v + i u, -i w]].
    """
    c = -1.0 / hbar
    u, v, w = (c * (pref * np.asarray(f, dtype=float)) for f in (x, y, z))
    o = np.zeros_like(w)
    return np.stack([o, -w, -v, -u,
                     w, o, u, -v,
                     v, -u, o, w,
                     u, v, -w, o], axis=-1).reshape(w.shape + (4, 4))


def _spin_rk4(gen, psi0, tf, steps, final=False):
    """Renormalized RK4 of the real spin generator gen; complex trajectory."""
    y0 = np.ascontiguousarray(psi0, dtype=np.complex128).view(float)
    traj, drift = _rk4_linear(gen, y0, tf, steps, normalize=True, final=final)
    return traj.view(np.complex128), drift


def rk4_spin(tc, pc, tf, b0, alpha, beta, eta, pref, hbar, psi0, steps, final=False):
    """RK4 Schrodinger propagation under the synthesized fields.

    pref = g mu_B / 2 (meV/T).  States are renormalized each step; the
    maximum pre-renormalization drift |norm - 1| is returned alongside the
    (steps+1, 2) complex trajectory, or with final the (2,) final state.
    """
    def gen(t):
        return _spin_generator(*_xyz(t, tc, pc, tf, b0, alpha, beta, eta), pref, hbar)
    return _spin_rk4(gen, psi0, tf, steps, final)


def rk4_bloch(tc, pc, tf, b0, alpha, beta, eta, gamma, lam2, channel, r0, steps, final=False):
    """RK4 Bloch propagation: dephasing at rate gamma plus source-noise decay
    -(lam2 eta^2/2)(|a|^2 I - a a^T), Z' = Z - B0.  channel None has none;
    "as-printed" keeps the diagonal of it with a = (X, Y, Z'); "x-only" is
    the full matrix with a = (0, Y, Z'), the Bloch form of the double
    commutator with the x-only noise operator.  Returns the (steps+1, 3)
    trajectory from r0, or with final its (3,) final state alone.
    """
    def gen(t):
        x, y, z = _xyz(t, tc, pc, tf, b0, alpha, beta, eta)
        a = np.zeros((len(t), 3, 3))
        a[:, 0, 1], a[:, 0, 2] = eta * z, -eta * y
        a[:, 1, 0], a[:, 1, 2] = -eta * z, eta * x
        a[:, 2, 0], a[:, 2, 1] = eta * y, -eta * x
        rates = (0.0,) * 3
        if channel is not None:
            zp = z - b0
            ke = 0.5 * lam2 * eta * eta
            if channel == "as-printed":
                rates = (ke * (y * y + zp * zp), ke * (x * x + zp * zp),
                         ke * (x * x + y * y))
            else:
                rates = ke * (y * y + zp * zp), ke * zp * zp, ke * y * y
                a[:, 1, 2] += ke * y * zp
                a[:, 2, 1] += ke * y * zp
        for i, rate in enumerate(rates):
            a[:, i, i] = -4.0 * gamma - rate
        return a
    return _rk4_linear(gen, r0, tf, steps, final=final)[0]


def em_final(tc, pc, tf, b0, alpha, beta, eta, pref, hbar, lams, psi0, dw, steps):
    """Final fidelities |psi_1(tf)| of Euler-Maruyama ensembles under the
    x-only noise operator, a (len(lams), n_traj) array: one row per noise
    strength, every trajectory in lock step on the same increments.

    dw yields step-major (c, n_traj) blocks of increments, C-contiguous so
    that each step reads one contiguous row, whose lengths c add up to steps;
    the whole (steps, n_traj) array need never exist.  On the real state
    y = (Re psi0, Im psi0, Re psi1, Im psi1) a step of strength lam is

        y <- D y + S (dW y),  D = (1 - kappa lam^2 dt / 2) I + dt real(-iH/hbar),
                              S = lam real(-iH'/hbar),

    with H' = H(0, Y, Z') and kappa = (pref/hbar)^2 (Y^2 + Z'^2), since
    H'^2 = pref^2 (Y^2 + Z'^2) I.  A block's matrices W = [D | S] come from
    one field evaluation on its part of the step grid k tf / steps, as one
    (c, G, 4, 8) array.  The state lives in the upper half of one of two
    (8, G, n_traj) buffers; a step writes dW y into its lower half and one
    batched matmul of W with it into the upper half of the other.  The step
    is linear and a positive scale leaves |psi_1| / |psi| alone, so the
    states are renormalized only every RENORM_EVERY steps of the global step
    index, and at tf; the result does not depend on how dw is blocked.  Each
    row equals its one-strength run bit for bit, but trajectory i of an
    n_traj run may differ in its last bit from a run of that one trajectory,
    as the BLAS kernel may treat a matrix column by its position.
    """
    lam = np.asarray(lams, dtype=float)
    dt = tf / steps
    start = 0
    for block in dw:
        width = block.shape[0]
        x, y, z = _xyz(np.arange(start, start + width) * dt, tc, pc, tf, b0, alpha, beta, eta)
        zp = z - b0
        decay = 1.0 - 0.5 * dt * (pref / hbar) ** 2 * (y * y + zp * zp)[:, None] * (lam * lam)
        w = np.empty((width, lam.shape[0], 4, 8))
        w[..., :4] = dt * _spin_generator(x, y, z, pref, hbar)[:, None]
        w[..., :4] += decay[..., None, None] * np.eye(4)
        w[..., 4:] = lam[:, None, None] * _spin_generator(np.zeros_like(y), y, zp, pref,
                                                          hbar)[:, None]
        if start == 0:
            bufs = np.empty((2, 8, lam.shape[0], block.shape[1]))
            bufs[0, :4] = np.ascontiguousarray(psi0, dtype=np.complex128).view(float)[:, None, None]
            # per strength, (8, n_traj) and (4, n_traj) matrices in the buffers
            mats = bufs.transpose(0, 2, 1, 3)
        for k, dwk in enumerate(block, start):
            state, nxt = bufs[k % 2], bufs[(k + 1) % 2, :4]
            np.multiply(state[:4], dwk, out=state[4:])
            np.matmul(w[k - start], mats[k % 2], out=mats[(k + 1) % 2, :, :4])
            if (k + 1) % RENORM_EVERY == 0:
                nxt /= np.linalg.norm(nxt, axis=0)
        start += width
    final = bufs[steps % 2, :4]
    final /= np.linalg.norm(final, axis=0)
    return np.hypot(final[2], final[3])
