"""Hot numeric kernels: field synthesis, RK4 propagators, Euler-Maruyama.

Everything here is plain numpy.  The scalar per-point field functions serve
single-instant callers and the guard-window points of the field grids; the
grids themselves, the denominator scan and every propagator are vectorized
over time.  The two RK4 equations, Bloch (3x3, with dephasing and either
source-noise channel) and Schrodinger (run on (Re psi, Im psi) as a 4x4),
are real and linear with coefficients that depend on t alone, so every RK4
step is a real transfer matrix built from fields evaluated on all stage
times at once (see :func:`_rk4_linear`).  The one Euler-Maruyama kernel,
:func:`em_final`, runs a lock-step loop over a (noise strength, trajectory)
array: a noise-strength grid runs as one ensemble on shared increments,
which arrive in blocks of steps, and each block's coefficients come from one
field evaluation on its part of the step grid.  Its step runs in place on
state and scratch buffers allocated once per call, so it allocates no array
per step, and it returns the final fidelities only.

Angle cubics enter as raw coefficient arrays (rad/ns^j); material parameters
as scalars.  Error signalling is NaN poisoning: a non-cancellable
field-synthesis singularity yields NaN fields, which wrappers in
:mod:`spinflip.fields` and the propagator modules convert to typed errors.

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


def poly3(c, t):
    return ((c[3] * t + c[2]) * t + c[1]) * t + c[0]


def dpoly3(c, t):
    return (3.0 * c[3] * t + 2.0 * c[2]) * t + c[1]


def _parts(cot, sph, cph, thd, phd, b0, alpha, beta, eta):
    # shared by the scalar and the vectorized field synthesis
    n1 = -beta * thd * cot * cph + beta * (phd + eta * b0) * sph
    n2 = alpha * thd * cot * sph + alpha * (phd + eta * b0) * cph - beta * thd
    d0 = alpha * cot - beta * sph
    return n1, n2, d0


def field_parts(t, tc, pc, b0, alpha, beta, eta):
    """Numerators of B1, B2 and the shared denominator factor (no eta, no xi).

    Returns (n1, n2, d0) with d0 = alpha*cot(theta) - beta*sin(phi);
    B1 = n1 / (eta (1+xi_x) d0), B2 = n2 / (eta (1+xi_y) d0).
    """
    th = poly3(tc, t)
    ph = poly3(pc, t)
    return _parts(math.cos(th) / math.sin(th), math.sin(ph), math.cos(ph),
                  dpoly3(tc, t), dpoly3(pc, t), b0, alpha, beta, eta)


def b1_b2(t, tc, pc, tf, b0, alpha, beta, eta, xi_x, xi_y):
    """Effective drive fields (B1, B2) in T at one instant.

    Returns exact zero limits inside the endpoint clamp, the L'Hopital value
    inside the denominator guard, and (NaN, NaN) when the guarded point does
    not satisfy numerator cancellation.
    """
    edge = EDGE_FRAC * tf
    if t < edge or t > tf - edge:
        return 0.0, 0.0
    n1, n2, d0 = field_parts(t, tc, pc, b0, alpha, beta, eta)
    fx = 1.0 + xi_x
    fy = 1.0 + xi_y
    if abs(d0) < DEN_GUARD * alpha:
        thd = dpoly3(tc, t)
        phd = dpoly3(pc, t)
        scale = abs(beta * thd) + abs(beta * (phd + eta * b0))
        if abs(n1) > NONCANCEL_TOL * scale or abs(n2) > NONCANCEL_TOL * scale:
            return np.nan, np.nan
        h = LHOP_STEP * tf
        n1p, n2p, d0p = field_parts(t + h, tc, pc, b0, alpha, beta, eta)
        n1m, n2m, d0m = field_parts(t - h, tc, pc, b0, alpha, beta, eta)
        dd = d0p - d0m
        if dd == 0.0:
            return np.nan, np.nan
        return (n1p - n1m) / (eta * fx * dd), (n2p - n2m) / (eta * fy * dd)
    return n1 / (eta * fx * d0), n2 / (eta * fy * d0)


def _b1_b2(ts, tc, pc, tf, b0, alpha, beta, eta, xi_x, xi_y):
    """b1_b2 over an array of times, bit-identical to it point by point.

    The common branch is evaluated in one pass; endpoint-clamp points get
    the zero limits, and the few points inside the denominator guard window
    go through the scalar b1_b2 (L'Hopital value or NaN poisoning).
    """
    ts = np.asarray(ts, dtype=float)
    with np.errstate(all="ignore"):
        th = poly3(tc, ts)
        ph = poly3(pc, ts)
        n1, n2, d0 = _parts(np.cos(th) / np.sin(th), np.sin(ph), np.cos(ph),
                            dpoly3(tc, ts), dpoly3(pc, ts), b0, alpha, beta, eta)
        b1 = n1 / (eta * (1.0 + xi_x) * d0)
        b2 = n2 / (eta * (1.0 + xi_y) * d0)
    edge = EDGE_FRAC * tf
    inside = (ts >= edge) & (ts <= tf - edge)
    b1[~inside] = 0.0
    b2[~inside] = 0.0
    for i in np.flatnonzero(inside & (np.abs(d0) < DEN_GUARD * alpha)):
        b1[i], b2[i] = b1_b2(ts[i], tc, pc, tf, b0, alpha, beta, eta, xi_x, xi_y)
    return b1, b2


def _xyz(ts, tc, pc, tf, b0, alpha, beta, eta):
    b1, b2 = _b1_b2(ts, tc, pc, tf, b0, alpha, beta, eta, 0.0, 0.0)
    return b2, (alpha / beta) * b1, b0 + b1


def b1_b2_grid(ts, tc, pc, tf, b0, alpha, beta, eta, xi_x, xi_y):
    return np.column_stack(_b1_b2(ts, tc, pc, tf, b0, alpha, beta, eta, xi_x, xi_y))


def _denominator(t, tc, pc, alpha, beta):
    """alpha cot(theta) - beta sin(phi) at one instant, as denominator_grid."""
    th = poly3(tc, t)
    return alpha * math.cos(th) / math.sin(th) - beta * math.sin(poly3(pc, t))


def denominator_grid(ts, tc, pc, alpha, beta):
    th = poly3(tc, ts)
    return alpha * np.cos(th) / np.sin(th) - beta * np.sin(poly3(pc, ts))


def _rk4_linear(gen, y0, tf, steps, normalize=False):
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
    A and y are real; y0 is (d,), or (d, k) for k starts at once (without
    normalize).  Returns the (steps + 1,) + y0.shape trajectory and the drift.
    """
    y = np.asarray(y0, dtype=float)
    traj = np.empty((steps + 1,) + y.shape, dtype=y.dtype)
    traj[0] = y
    eye = np.eye(y.shape[0])
    dt = tf / steps
    drift = 0.0
    block = BLOCK_BYTES // traj.itemsize // y.shape[0] ** 2
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


def _spin_rk4(gen, psi0, tf, steps):
    """Renormalized RK4 of the real spin generator gen; complex trajectory."""
    y0 = np.ascontiguousarray(psi0, dtype=np.complex128).view(float)
    traj, drift = _rk4_linear(gen, y0, tf, steps, normalize=True)
    return traj.view(np.complex128), drift


def rk4_spin(tc, pc, tf, b0, alpha, beta, eta, pref, hbar, psi0, steps):
    """RK4 Schrodinger propagation under the synthesized fields.

    pref = g mu_B / 2 (meV/T).  States are renormalized each step; the
    maximum pre-renormalization drift |norm - 1| is returned alongside the
    (steps+1, 2) complex trajectory.
    """
    def gen(t):
        return _spin_generator(*_xyz(t, tc, pc, tf, b0, alpha, beta, eta), pref, hbar)
    return _spin_rk4(gen, psi0, tf, steps)


def rk4_spin_const(x, y, z, pref, hbar, psi0, tf, steps):
    """RK4 under a constant field triple (free precession / no drive)."""
    a = _spin_generator(x, y, z, pref, hbar)

    def gen(t):
        return np.broadcast_to(a, (len(t), 4, 4))
    return _spin_rk4(gen, psi0, tf, steps)[0]


def rk4_bloch(tc, pc, tf, b0, alpha, beta, eta, gamma, lam2, channel, r0, steps):
    """RK4 Bloch propagation: dephasing at rate gamma plus source-noise decay
    -(lam2 eta^2/2)(|a|^2 I - a a^T), Z' = Z - B0.  Channel 0 has none;
    channel 1 (as printed) keeps the diagonal of it with a = (X, Y, Z');
    channel 2 (x-only) is the full matrix with a = (0, Y, Z'), the Bloch
    form of the double commutator with the x-only noise operator.

    r0 is (3,) or (3, k); columns of a (3, k) start propagate independently
    and the trajectory is (steps+1, 3, k).
    """
    def gen(t):
        x, y, z = _xyz(t, tc, pc, tf, b0, alpha, beta, eta)
        a = np.zeros((len(t), 3, 3))
        a[:, 0, 1], a[:, 0, 2] = eta * z, -eta * y
        a[:, 1, 0], a[:, 1, 2] = -eta * z, eta * x
        a[:, 2, 0], a[:, 2, 1] = eta * y, -eta * x
        rates = (0.0,) * 3
        if channel:
            zp = z - b0
            ke = 0.5 * lam2 * eta * eta
            if channel == 1:
                rates = (ke * (y * y + zp * zp), ke * (x * x + zp * zp),
                         ke * (x * x + y * y))
            else:
                rates = ke * (y * y + zp * zp), ke * zp * zp, ke * y * y
                a[:, 1, 2] += ke * y * zp
                a[:, 2, 1] += ke * y * zp
        for i, rate in enumerate(rates):
            a[:, i, i] = -4.0 * gamma - rate
        return a
    return _rk4_linear(gen, r0, tf, steps)[0]


def em_final(tc, pc, tf, b0, alpha, beta, eta, pref, hbar, lams, psi0, dw, steps):
    """Final fidelities |psi_1(tf)| of Euler-Maruyama ensembles under the
    x-only noise operator, a (len(lams), n_traj) array: one row per noise
    strength, every trajectory in lock step on the same increments.

    dw yields (n_traj, c) blocks of increments whose widths add up to steps,
    so the whole (n_traj, steps) array need never exist.  A block's drift
    and noise coefficients come from one field evaluation on its part of the
    step grid k tf / steps, as (c, G, 1) arrays; the lam-free a01 and a10 as
    Python complex scalars.  Each step renormalizes the states, in place on
    buffers allocated once per call.  Every elementwise operation and its
    operand order are those of n0 = (a00 p0 + a01 p1) dt + (s00 p0 + s01 p1)
    dW, p0 += n0 (and n1, p1 alike), p /= |p|, so the states equal that
    expression bit for bit.
    """
    lam = np.reshape(np.asarray(lams, dtype=float), (-1, 1))
    dt = tf / steps
    # -+i lam / hbar in Python complex arithmetic, as for a scalar lam: numpy's
    # complex division multiplies by the reciprocal, which can move the last bit
    minus = np.array([-1j * v / hbar for v in lam[:, 0].tolist()], dtype=complex)[:, None]
    plus = np.array([1j * v / hbar for v in lam[:, 0].tolist()], dtype=complex)[:, None]
    start = 0
    for block in dw:
        width = block.shape[1]
        x, y, z = (v[:, None, None] for v in _xyz(np.arange(start, start + width) * dt,
                                                  tc, pc, tf, b0, alpha, beta, eta))
        zp = z - b0
        h00 = pref * z
        h01 = pref * (x + 1j * y)
        q00 = pref * zp
        q01 = pref * (1j * y)
        # Hp^2 = pref^2 (Y^2 + Z'^2) * identity
        drift = -0.5 * lam * lam * pref * pref * (y * y + zp * zp) / (hbar * hbar)
        a00 = -1j / hbar * h00 + drift
        a01 = (-1j / hbar * h01).ravel().tolist()
        a10 = (-1j / hbar * h01.conjugate()).ravel().tolist()
        a11 = 1j / hbar * h00 + drift
        s00 = minus * q00
        s01 = minus * q01
        s10 = minus * q01.conjugate()
        s11 = plus * q00
        if start == 0:
            state = np.empty((2, lam.shape[0], block.shape[0]), dtype=np.complex128)
            state[0], state[1] = psi0[0], psi0[1]
            p0, p1 = state
            n0, n1, t0, t1 = np.empty((4,) + p0.shape, dtype=np.complex128)
            n0_re, n1_re = n0.view(float), n1.view(float)
            mag = np.empty(state.shape)
            norm = np.empty(p0.shape)
            # each reciprocal norm twice, once for Re and once for Im
            inv = np.empty(p0.shape + (2,))
            state_re = state.view(float).reshape(state.shape + (2,))
        for k, dwk in enumerate(np.ascontiguousarray(block.T)):
            # n0 = (a00 p0 + a01 p1) dt + (s00 p0 + s01 p1) dW, and n1 alike.
            # A complex times the real dt is (re dt, im dt), as on the float view.
            np.multiply(a00[k], p0, out=n0)
            np.multiply(a01[k], p1, out=t0)
            np.add(n0, t0, out=n0)
            np.multiply(n0_re, dt, out=n0_re)
            np.multiply(s00[k], p0, out=t0)
            np.multiply(s01[k], p1, out=t1)
            np.add(t0, t1, out=t0)
            np.multiply(t0, dwk, out=t0)
            np.add(n0, t0, out=n0)
            np.multiply(a10[k], p0, out=n1)
            np.multiply(a11[k], p1, out=t0)
            np.add(n1, t0, out=n1)
            np.multiply(n1_re, dt, out=n1_re)
            np.multiply(s10[k], p0, out=t0)
            np.multiply(s11[k], p1, out=t1)
            np.add(t0, t1, out=t0)
            np.multiply(t0, dwk, out=t0)
            np.add(n1, t0, out=n1)
            np.add(p0, n0, out=p0)
            np.add(p1, n1, out=p1)
            # numpy divides a complex by a real as (re, im) * (1 / real), so
            # scaling Re and Im by the reciprocal renormalizes bit for bit
            np.abs(state, out=mag)
            np.square(mag, out=mag)
            np.add(mag[0], mag[1], out=norm)
            np.sqrt(norm, out=norm)
            np.divide(1.0, norm, out=inv[..., 0])
            inv[..., 1] = inv[..., 0]
            np.multiply(state_re, inv, out=state_re)
        start += width
    return np.abs(p1)

