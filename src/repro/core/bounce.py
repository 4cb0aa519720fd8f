"""Body-bounce extraction from mixed wrist signals — Eqs. (3)-(5).

Within one gait cycle the arm passes three key moments (Fig. 5(b)):

    (i)   backmost,
    (ii)  vertical (wrist directly below the shoulder),
    (iii) foremost.

Between them, the device's *measured* vertical displacements mix the
arm's own travel with the body's bounce:

    h1 = r1 - b        (i)  -> (ii): arm descends r1, body rises b
    h2 = r2 - b        (ii) -> (iii): arm ascends r2, body descends b

while the anterior travel is pure arm geometry:

    d = sqrt(m^2 - (m - r1)^2) + sqrt(m^2 - (m - r2)^2)       (Eq. 5)

Substituting ``r = h + b`` turns Eq. (5) into a single equation in the
bounce ``b``; the left side is strictly increasing in ``b``, so the
root is unique and a bracketed scalar solve recovers it (the paper's
"close-form expression, omitted due to page limit" is the same root).

Measurements come from mean-removal double integration
(:mod:`repro.signal.integration`): moments (i)/(iii) are located at the
extrema of the cycle's oscillatory anterior displacement (zero anterior
arm velocity — valid integration endpoints), and (ii) at the interior
vertical-displacement extremum between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize

from repro.exceptions import GeometryError, SignalError
from repro.signal.integration import (
    cumulative_trapezoid,
    double_integrate_mean_removal,
    integrate_mean_removal,
    peak_to_peak_displacement,
)

__all__ = [
    "CycleMoments",
    "body_phase_factors",
    "bounce_from_half_cycle",
    "direct_bounce",
    "extract_cycle_moments",
    "solve_bounce",
    "solve_bounce_block",
    "solve_bounce_lag_corrected",
]


@dataclass(frozen=True)
class CycleMoments:
    """Measured geometry of one gait cycle's three key arm moments.

    Indices are relative to the analysed cycle segment.

    Attributes:
        backmost_index: Sample index of moment (i).
        vertical_index: Sample index of moment (ii).
        foremost_index: Sample index of moment (iii).
        h1_m: Signed device descent from (i) to (ii)  (``r1 - b``).
        h2_m: Signed device ascent from (ii) to (iii) (``r2 - b``).
        d_m: Total anterior arm travel from (i) to (iii).
        d1_m: Anterior travel from (i) to (ii).
        d2_m: Anterior travel from (ii) to (iii).
    """

    backmost_index: int
    vertical_index: int
    foremost_index: int
    h1_m: float
    h2_m: float
    d_m: float
    d1_m: float
    d2_m: float


def extract_cycle_moments(
    vertical: np.ndarray,
    anterior: np.ndarray,
    dt: float,
) -> CycleMoments:
    """Locate moments (i)/(ii)/(iii) and measure (h1, h2, d, d1, d2).

    Args:
        vertical: Vertical acceleration of one gait-cycle candidate
            whose boundaries sit near zero vertical velocity (the
            segmenter cuts at acceleration valleys, which satisfy this).
        anterior: Anterior acceleration of the same cycle.
        dt: Sample period in seconds.

    Returns:
        The measured :class:`CycleMoments`.

    Raises:
        SignalError: On shape mismatch or too-short segments.
        GeometryError: When no plausible moment geometry exists (e.g.
            the anterior oscillation has no clear extremes).
    """
    v = np.asarray(vertical, dtype=float)
    a = np.asarray(anterior, dtype=float)
    if v.shape != a.shape:
        raise SignalError(f"axis length mismatch: {v.shape} vs {a.shape}")
    n = v.size
    if n < 16:
        raise SignalError(f"cycle too short for moment extraction: {n} samples")

    # Both axes are integrated over the *full* cycle.  A gait cycle is
    # periodic, so the true acceleration integrates to zero over it
    # (making the measured acceleration mean pure bias) and the true
    # velocity has a well-defined oscillatory part (making the velocity
    # mean removal exact): full-period mean-removal integration is
    # valid regardless of the velocities at the segment boundaries.
    # Half-window re-integration, by contrast, would require zero
    # *total* vertical velocity exactly at the arm extremes — untrue
    # once the arm swing lags the gait, as human arm swing does.
    disp_a = double_integrate_mean_removal(a, dt)
    disp_v = double_integrate_mean_removal(v, dt)

    # Moments (i)/(iii): the extremes of the oscillatory anterior
    # displacement — the arm's backmost/foremost positions (the
    # detrend removed the walking baseline v0, leaving the arm sweep).
    i_lo = int(np.argmin(disp_a))
    i_hi = int(np.argmax(disp_a))
    backmost, foremost = (i_lo, i_hi) if i_lo < i_hi else (i_hi, i_lo)
    if foremost - backmost < n // 4:
        raise GeometryError(
            "anterior extremes too close; no arm sweep in this cycle"
        )

    # Moment (ii): the arm passes vertical where its anterior speed
    # peaks (a pendulum's angular velocity is maximal at the bottom of
    # its swing, and the arm dominates the wrist's oscillatory anterior
    # velocity).  This signature is robust where the vertical
    # displacement curve is not: between the arm extremes the device's
    # vertical motion superposes the arm dip and the body hump, and
    # whichever is larger would win a shape-based detection.
    vel_a = integrate_mean_removal(a, dt)
    span = foremost - backmost
    margin = max(1, span // 8)
    speed = np.abs(vel_a[backmost : foremost + 1])
    ii_rel = margin + int(np.argmax(speed[margin : span + 1 - margin]))
    if speed[ii_rel] <= 0:
        raise GeometryError("no anterior-speed peak between arm extremes")
    vertical_idx = backmost + ii_rel

    d_total = float(abs(disp_a[foremost] - disp_a[backmost]))
    if d_total < 0.01:
        raise GeometryError(
            f"anterior sweep of {d_total * 100:.2f} cm is no arm swing"
        )
    d1 = float(abs(disp_a[vertical_idx] - disp_a[backmost]))
    d2 = float(abs(disp_a[foremost] - disp_a[vertical_idx]))
    h1 = float(disp_v[backmost] - disp_v[vertical_idx])
    h2 = float(disp_v[foremost] - disp_v[vertical_idx])

    return CycleMoments(
        backmost_index=backmost,
        vertical_index=vertical_idx,
        foremost_index=foremost,
        h1_m=h1,
        h2_m=h2,
        d_m=d_total,
        d1_m=d1,
        d2_m=d2,
    )


def _anterior_travel(b: float, h1: float, h2: float, m: float) -> float:
    """Right side of Eq. (5) as a function of the bounce ``b``.

    Evaluated thousands of times per second inside the Brent solve;
    ``math.sqrt`` skips the numpy scalar dispatch and is bit-identical
    (both sqrts are correctly rounded).  The squares are spelled as
    explicit products, not ``**2``: CPython routes ``float ** 2``
    through C ``pow``, which differs from ``x * x`` in the last ulp for
    a fraction of inputs, while the vectorized counterpart
    (:func:`_anterior_travel_rows`) necessarily multiplies — the
    product form is what keeps scalar and block solvers bit-identical.
    """
    r1 = h1 + b
    r2 = h2 + b
    u1 = m - r1
    u2 = m - r2
    t1 = m * m - u1 * u1
    t2 = m * m - u2 * u2
    return math.sqrt(max(t1, 0.0)) + math.sqrt(max(t2, 0.0))


def _anterior_travel_rows(
    b: np.ndarray, h1: np.ndarray, h2: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`_anterior_travel` — same operation order.

    ``np.maximum(t, 0.0)`` and Python ``max(t, 0.0)`` pick different
    zero *signs* for ``t == -0.0`` but the same value, and ``np.sqrt``
    matches ``math.sqrt`` bitwise (both correctly rounded), so rows
    here equal the scalar evaluation bit-for-bit.
    """
    r1 = h1 + b
    r2 = h2 + b
    u1 = m - r1
    u2 = m - r2
    t1 = m * m - u1 * u1
    t2 = m * m - u2 * u2
    return np.sqrt(np.maximum(t1, 0.0)) + np.sqrt(np.maximum(t2, 0.0))


def solve_bounce(
    h1: float,
    h2: float,
    d: float,
    arm_length_m: float,
    max_bounce_m: float = 0.30,
) -> float:
    """Solve Eqs. (3)-(5) for the body bounce ``b``.

    Args:
        h1: Signed device descent (i) -> (ii), metres.
        h2: Signed device ascent (ii) -> (iii), metres.
        d: Anterior arm travel (i) -> (iii), metres.
        arm_length_m: User arm length ``m``.
        max_bounce_m: Physical upper bound of the search bracket.

    Returns:
        The bounce ``b`` in metres (clipped to the physical bracket
        when the measured ``d`` falls outside the attainable range —
        integration error can push it slightly past the geometry).

    Raises:
        GeometryError: If the inputs are outside any plausible
            geometry, e.g. ``d`` exceeding twice the arm length.
    """
    m = arm_length_m
    if m <= 0:
        raise GeometryError(f"arm length must be positive, got {m}")
    if d < 0:
        raise GeometryError(f"anterior travel must be >= 0, got {d}")
    if d > 2.0 * m:
        raise GeometryError(
            f"anterior travel {d:.3f} m exceeds twice the arm length {m:.3f} m"
        )

    # The arm displacements r = h + b must stay in [0, m]; build the
    # tightest bracket that keeps both halves physical.
    lo = max(0.0, -h1, -h2) + 1e-9
    hi = min(max_bounce_m, m - h1, m - h2) - 1e-9
    if hi <= lo:
        raise GeometryError(
            f"empty bounce bracket for h1={h1:.3f}, h2={h2:.3f}, m={m:.3f}"
        )

    f_lo = _anterior_travel(lo, h1, h2, m) - d
    f_hi = _anterior_travel(hi, h1, h2, m) - d
    if f_lo >= 0.0:
        return lo  # even zero bounce over-explains d: report the floor
    if f_hi <= 0.0:
        return hi  # d larger than the bracket allows: report the cap
    return float(optimize.brentq(_anterior_travel_root, lo, hi, args=(h1, h2, m, d)))


def _anterior_travel_root(b: float, h1: float, h2: float, m: float, d: float) -> float:
    return _anterior_travel(b, h1, h2, m) - d


# scipy.optimize.brentq defaults, frozen here because the block solver
# reimplements the C loop and must converge to the *same* iterate.
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100

# Up to this many rows the numpy lockstep loop's fixed dispatch cost
# (~40 array ops per Brent iteration) exceeds N scalar brentq calls;
# fall back to the scalar solver (the results are bit-identical either
# way, this is purely a perf knob). Measured on walking geometries from
# served rounds (2-vCPU Xeon): a block solve costs ~0.6-1.0 ms whatever
# the row count, a scalar brentq ~29-32 us per row, so the crossover
# sits at ~32 rows.
_BLOCK_SCALAR_CUTOFF = 32


def _brent_rows(
    xpre: np.ndarray,
    xcur: np.ndarray,
    fpre: np.ndarray,
    fcur: np.ndarray,
    h1: np.ndarray,
    h2: np.ndarray,
    m: np.ndarray,
    d: np.ndarray,
    maxiter: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lockstep port of scipy's ``brentq`` C loop over many brackets.

    Every row carries the full Zeroin state (``xpre/xcur/xblk``,
    ``fpre/fcur/fblk``, ``spre/scur``) and each numpy operation below
    mirrors one statement of ``scipy/optimize/Zeros/brentq.c`` in the
    same order, so converged rows reproduce the scalar iterate
    bit-for-bit (all steps are elementwise; there are no reductions to
    reassociate).  Rows are compacted out of the working set as they
    converge, keeping the per-iteration cost proportional to the rows
    still live.

    Callers must pre-clip: every row needs ``fpre < 0 < fcur``.

    Returns ``(root, converged)``; non-converged rows (``maxiter``
    exhausted — does not happen for Eq. (5)'s monotone travel function
    within the physical bracket, but the fallback keeps the oracle
    honest) hold NaN.
    """
    n = xcur.size
    root = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    idx = np.arange(n)

    xblk = np.zeros(n)
    fblk = np.zeros(n)
    spre = np.zeros(n)
    scur = np.zeros(n)

    for _ in range(maxiter):
        rebracket = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
        xblk = np.where(rebracket, xpre, xblk)
        fblk = np.where(rebracket, fpre, fblk)
        width = xcur - xpre
        spre = np.where(rebracket, width, spre)
        scur = np.where(rebracket, width, scur)

        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (
            np.where(swap, xcur, xpre),
            np.where(swap, xblk, xcur),
            np.where(swap, xcur, xblk),
        )
        fpre, fcur, fblk = (
            np.where(swap, fcur, fpre),
            np.where(swap, fblk, fcur),
            np.where(swap, fcur, fblk),
        )

        delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            root[idx[done]] = xcur[done]
            converged[idx[done]] = True
            keep = ~done
            if not keep.any():
                return root, converged
            idx = idx[keep]
            xpre, xcur, xblk = xpre[keep], xcur[keep], xblk[keep]
            fpre, fcur, fblk = fpre[keep], fcur[keep], fblk[keep]
            spre, scur = spre[keep], scur[keep]
            delta, sbis = delta[keep], sbis[keep]
            h1, h2, m, d = h1[keep], h2[keep], m[keep], d[keep]

        try_interp = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
        # The masked-out rows divide by zero / produce NaN here; they
        # take the bisection branch below regardless (NaN compares
        # False), exactly as the C code never evaluates stry for them.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            stry_secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry_quad = (
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            )
            stry = np.where(xpre == xblk, stry_secant, stry_quad)
            accept = try_interp & (
                2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)
            )
        spre = np.where(accept, scur, sbis)
        scur = np.where(accept, stry, sbis)

        xpre = xcur
        fpre = fcur
        xcur = xcur + np.where(
            np.abs(scur) > delta, scur, np.where(sbis > 0.0, delta, -delta)
        )
        fcur = _anterior_travel_rows(xcur, h1, h2, m) - d

    return root, converged


def solve_bounce_block(
    h1: np.ndarray,
    h2: np.ndarray,
    d: np.ndarray,
    arm_length_m: np.ndarray,
    max_bounce_m: float = 0.30,
    maxiter: int = _BRENT_MAXITER,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`solve_bounce` over N cycles at once.

    One lockstep safeguarded solve (:func:`_brent_rows`) replaces N
    independent ``optimize.brentq`` calls.  For every row where
    ``valid`` is True the returned bounce is **bit-identical** to the
    scalar :func:`solve_bounce` on the same inputs (bracket build,
    endpoint clips, and every Brent iterate replicate the scalar
    control flow exactly; see ``tests/test_batched_kernels.py`` for
    the differential suite).  Rows where the scalar solver would raise
    :class:`~repro.exceptions.GeometryError`, or where the lockstep
    loop exhausts ``maxiter``, come back ``valid=False`` with NaN —
    callers re-run those rows through the scalar path so errors keep
    their exact scalar semantics.

    Args:
        h1: Signed device descents (i) -> (ii), metres, shape ``(n,)``.
        h2: Signed device ascents (ii) -> (iii), metres, shape ``(n,)``.
        d: Anterior arm travels (i) -> (iii), metres, shape ``(n,)``.
        arm_length_m: Arm length per row (scalar broadcasts).
        max_bounce_m: Physical upper bound of the search bracket.
        maxiter: Brent iteration cap (scipy's default 100).

    Returns:
        ``(bounce, valid)`` — float64 roots (NaN where invalid) and a
        boolean mask of rows the block solver fully resolved.
    """
    h1 = np.ascontiguousarray(h1, dtype=float)
    h2 = np.ascontiguousarray(h2, dtype=float)
    d = np.ascontiguousarray(d, dtype=float)
    n = d.size
    m = np.broadcast_to(np.asarray(arm_length_m, dtype=float), (n,))

    bounce = np.full(n, np.nan)
    valid = np.zeros(n, dtype=bool)
    if n == 0:
        return bounce, valid
    if n <= _BLOCK_SCALAR_CUTOFF:
        for i in range(n):
            try:
                bounce[i] = solve_bounce(
                    float(h1[i]), float(h2[i]), float(d[i]), float(m[i]),
                    max_bounce_m=max_bounce_m,
                )
                valid[i] = True
            except GeometryError:
                pass
        return bounce, valid

    # Scalar guard clauses, vectorized: m <= 0, d < 0, d > 2m, and the
    # empty bracket all raise GeometryError in solve_bounce.
    lo = np.maximum(np.maximum(0.0, -h1), -h2) + 1e-9
    hi = np.minimum(np.minimum(max_bounce_m, m - h1), m - h2) - 1e-9
    bad = (m <= 0.0) | (d < 0.0) | (d > 2.0 * m) | (hi <= lo)

    f_lo = _anterior_travel_rows(lo, h1, h2, m) - d
    f_hi = _anterior_travel_rows(hi, h1, h2, m) - d
    clip_lo = ~bad & (f_lo >= 0.0)
    clip_hi = ~bad & ~clip_lo & (f_hi <= 0.0)
    bounce[clip_lo] = lo[clip_lo]
    bounce[clip_hi] = hi[clip_hi]
    valid[clip_lo | clip_hi] = True

    solve = ~(bad | clip_lo | clip_hi)
    if solve.any():
        s = np.flatnonzero(solve)
        roots, conv = _brent_rows(
            lo[s], hi[s], f_lo[s], f_hi[s],
            h1[s], h2[s], np.ascontiguousarray(m[s]), d[s],
            maxiter,
        )
        bounce[s] = roots
        valid[s] = conv
    return bounce, valid


def solve_bounce_lag_corrected(
    h1: float,
    h2: float,
    d: float,
    arm_length_m: float,
    g1: float,
    g2: float,
    max_bounce_m: float = 0.30,
) -> float:
    """Eqs. (3)-(5) with measured body-phase factors (extension).

    The paper's ``h = r - b`` assumes the arm's extremes coincide with
    heel strikes, so the body traverses its *full* bounce between the
    key moments. Human arm swing lags the gait by a few percent of the
    cycle, making the traversed fraction ``g < 1``:

        h1 = r1 - g1 * b,    h2 = r2 - g2 * b,

    where ``g = [cos(4 pi phi_a) - cos(4 pi phi_b)] / 2`` follows from
    the body's phase ``phi`` at the two moments — measurable per cycle
    from the step peaks the segmenter already found. Substituting into
    Eq. (5) keeps the root unique (the left side is still strictly
    increasing in ``b`` for positive ``g``).

    Exact on synthetic geometry (see tests), this refinement is *not*
    wired into the pipeline: the phase reference a wrist can measure
    (the combined-signal step peaks) is itself lag-shifted, and
    empirically the plain solve is near-unbiased while this one
    over-corrects. Kept as a documented analysis tool (DESIGN.md, and
    docs/ALGORITHMS.md section 5).

    Args:
        h1: Signed device descent (i) -> (ii), metres.
        h2: Signed device ascent (ii) -> (iii), metres.
        d: Anterior arm travel (i) -> (iii), metres.
        arm_length_m: User arm length ``m``.
        g1: Body bounce fraction traversed from (i) to (ii).
        g2: Body bounce fraction traversed from (ii) to (iii).
        max_bounce_m: Physical upper bound of the search bracket.

    Returns:
        The bounce ``b`` in metres (clipped into the physical bracket
        when measurement error pushes ``d`` outside the geometry).

    Raises:
        GeometryError: On impossible inputs or non-positive factors.
    """
    m = arm_length_m
    if m <= 0:
        raise GeometryError(f"arm length must be positive, got {m}")
    if d < 0 or d > 2.0 * m:
        raise GeometryError(f"anterior travel {d:.3f} m outside [0, 2m]")
    if g1 <= 0 or g2 <= 0:
        raise GeometryError(f"bounce fractions must be positive, got ({g1}, {g2})")

    def travel(b: float) -> float:
        r1 = h1 + g1 * b
        r2 = h2 + g2 * b
        t1 = m**2 - (m - r1) ** 2
        t2 = m**2 - (m - r2) ** 2
        return float(np.sqrt(max(t1, 0.0)) + np.sqrt(max(t2, 0.0)))

    lo = max(0.0, -h1 / g1, -h2 / g2) + 1e-9
    hi = min(max_bounce_m, (m - h1) / g1, (m - h2) / g2) - 1e-9
    if hi <= lo:
        raise GeometryError(
            f"empty bounce bracket for h1={h1:.3f}, h2={h2:.3f}, m={m:.3f}"
        )
    if travel(lo) - d >= 0.0:
        return lo
    if travel(hi) - d <= 0.0:
        return hi
    return float(optimize.brentq(lambda b: travel(b) - d, lo, hi))


def body_phase_factors(
    moments: "CycleMoments",
    step_peaks: Tuple[int, int],
) -> Tuple[float, float]:
    """Bounce fractions (g1, g2) from the cycle's own step peaks.

    The body is lowest at heel strikes (the vertical-acceleration peaks
    the segmenter paired) and oscillates twice per cycle, so its phase
    at any sample interpolates linearly between the peaks:
    ``phi(k) = (k - p1) / (2 * (p2 - p1))`` gait cycles.

    Args:
        moments: Measured cycle moments (indices of (i)/(ii)/(iii)).
        step_peaks: The cycle's two step-peak indices (p1, p2), in the
            same index frame as the moments.

    Returns:
        Tuple ``(g1, g2)``, each clipped into [0.05, 1.0].

    Raises:
        GeometryError: If the peaks coincide.
    """
    p1, p2 = step_peaks
    if p2 <= p1:
        raise GeometryError(f"step peaks must be ordered, got {step_peaks}")
    period2 = 2.0 * (p2 - p1)  # samples per gait cycle

    def phi(k: int) -> float:
        return (k - p1) / period2

    def cos4pi(k: int) -> float:
        return float(np.cos(4.0 * np.pi * phi(k)))

    g1 = (cos4pi(moments.backmost_index) - cos4pi(moments.vertical_index)) / 2.0
    g2 = (cos4pi(moments.foremost_index) - cos4pi(moments.vertical_index)) / 2.0
    return (
        float(np.clip(g1, 0.05, 1.0)),
        float(np.clip(g2, 0.05, 1.0)),
    )


def bounce_from_half_cycle(h: float, d_half: float, arm_length_m: float) -> float:
    """Closed-form bounce from a single half cycle.

    One half cycle gives one (h, d) pair and Eq. (5) reduces to

        b = m - h - sqrt(m^2 - d_half^2).

    The arm-length self-training keys on the *disagreement* of the two
    half-cycle estimates under a wrong ``m``.

    Args:
        h: Signed device vertical change over the half cycle (descent
            for the first half, ascent for the second).
        d_half: Anterior travel of the half cycle.
        arm_length_m: Candidate arm length ``m``.

    Returns:
        The implied bounce (may be negative for a wrong ``m`` — callers
        use it as a consistency signal, not as a physical value).

    Raises:
        GeometryError: If ``d_half`` exceeds the candidate arm length.
    """
    m = arm_length_m
    if m <= 0:
        raise GeometryError(f"arm length must be positive, got {m}")
    if d_half < 0:
        raise GeometryError(f"anterior travel must be >= 0, got {d_half}")
    if d_half >= m:
        raise GeometryError(
            f"half-cycle travel {d_half:.3f} m >= candidate arm length {m:.3f} m"
        )
    return float(m - h - np.sqrt(m**2 - d_half**2))


def direct_bounce(vertical: np.ndarray, dt: float) -> float:
    """Bounce in the stepping case: the device is rigid with the body.

    The paper notes the calculation "converts to compute bounce b
    directly": with no arm term, the body's vertical oscillation is the
    device's, so the bounce is the peak-to-peak excursion of the doubly
    integrated vertical acceleration.

    Args:
        vertical: Vertical acceleration of one gait cycle (zero
            vertical velocity at the boundaries).
        dt: Sample period in seconds.

    Returns:
        The bounce in metres.
    """
    return peak_to_peak_displacement(np.asarray(vertical, dtype=float), dt)
