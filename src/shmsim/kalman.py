"""Kalman-filter signal reconstruction and KL-based missing-sensor detection.

The filter runs on the physical displacement/velocity state of the (sub-)
structure with the exact discrete transition from the simulator. Measured
channels are absolute accelerations, so the measurement map is the selector
composed with ``-M^-1 K`` and the filter input is zero: the unknown excitation
is absorbed by process noise shaped along the base-excitation input direction.
Channels assumed faulty get their measurement variance inflated, which makes
the filter reconstruct them from the healthy channels and the model.

The filter is stationary: its gain comes from the steady Riccati covariance,
so the state obeys a linear recurrence with one fixed matrix, and a block runs
as a log-depth (Hillis-Steele) prefix scan rather than one step per sample.
Every filter runs through one runner, ``_filters``: one doubling solve per
stack of systems (each with its own A, H, Q, R and block, or sharing them), a
lone solve per system of a stack that fails, and one scan per system. The
missing-sensor scan's candidates differ only in R, and ``reconstruct_round``
stacks every filter of one state dimension, channel count and block length.
Every outcome equals its lone run's bit for bit; ``run_filter`` and
``reconstruct_signals`` are the stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import bin_indices, default_edges
from .sensing import SignalWindow
from .structure import StructureSpec, discrete_state_space


# histogram bins of the missing-sensor scan's KL divergence
SCAN_BINS = 16
# elements of a prefix-scan pass's temporary (128 KiB of float64); a pass runs in
# tiles of rows that fit, and the doubling solve stacks SCAN_BUFFER // n^2 systems
SCAN_BUFFER = 1 << 14


class KalmanError(ValueError):
    """Raised on dimension mismatches, singular noise or innovations, coverage gaps, or a
    Riccati equation without a finite steady state."""


@dataclass
class ReconstructionConfig:
    variance_inflation: float = 1e9  # multiplier on faulty channels' noise variance
    model_scope: str = "neighborhood"  # or "full"
    scope_margin: int = 1  # extra stories kept around the neighborhood span
    scan_report_ratio: float = 0.25  # report missing iff min/median lambda below this

    def __post_init__(self):
        if self.variance_inflation < 1.0:
            raise KalmanError("variance_inflation must be >= 1")
        if self.model_scope not in ("neighborhood", "full"):
            raise KalmanError("model_scope must be 'neighborhood' or 'full'")
        if self.scope_margin < 0:
            raise KalmanError("scope_margin must be >= 0")
        if self.scan_report_ratio < 0:
            raise KalmanError("scan_report_ratio must be >= 0")


@dataclass
class KalmanFilterState:
    """State and matrices of one discrete-time filter.

    ``P`` and ``gain`` stay None until ``run_filter`` sets them to the steady
    posterior covariance and the stationary gain.
    """

    x: np.ndarray  # (2n,) displacement/velocity state
    transition: np.ndarray  # (2n, 2n)
    measurement: np.ndarray  # (m, 2n)
    process_noise: np.ndarray  # (2n, 2n)
    measurement_noise: np.ndarray  # (m, m) diagonal, entries > 0
    P: np.ndarray | None = None  # (2n, 2n)
    gain: np.ndarray | None = None

    def __post_init__(self):
        d = np.diag(self.measurement_noise)
        if np.any(d <= 0):
            raise KalmanError("measurement noise variances must be > 0 (zero collapses the filter)")


def acceleration_output(spec: StructureSpec) -> np.ndarray:
    """Output map from [x; v] to absolute accelerations: [-M^-1 K, 0]."""
    n = spec.n_dof
    out = np.zeros((n, 2 * n))
    out[:, :n] = -(spec.stiffness_matrix() / spec.masses[:, None])
    return out


def filter_for_structure(
    spec: StructureSpec,
    measured_dofs,
    noise_var,
    inflated=(),
    inflation: float = 1e9,
    input_scale: float = 1.0,
    boundary_cut: tuple = (False, False),
) -> KalmanFilterState:
    """Build a zero-input acceleration filter for the given structure.

    ``measured_dofs`` lists the DOFs with sensors (row order of the
    measurement); ``noise_var`` gives each row's healthy noise variance;
    rows whose DOF is in ``inflated`` get the variance multiplied by
    ``inflation``. ``input_scale`` sets the process-noise magnitude and
    should be of the order of the measured acceleration RMS.

    ``boundary_cut`` marks whether the (bottom, top) of ``spec`` is a cut
    through the real structure rather than a physical boundary; each cut adds
    an unknown-force direction at the cut mass so the filter can absorb the
    unmodeled neighbor-story force.
    """
    a_mat, b_mat = discrete_state_space(spec)
    out = acceleration_output(spec)
    rows = [out[d] for d in measured_dofs]
    h = np.vstack(rows)
    cv = np.diag(
        [
            float(noise_var[i]) * (inflation if d in inflated else 1.0)
            for i, d in enumerate(measured_dofs)
        ]
    )
    # unknown excitation directions, all scaled to input_scale acceleration:
    # distributed base motion plus one point force per cut boundary
    n = spec.n_dof
    patterns = [-spec.masses]
    delta1 = float(spec.eigenvalues()[0])  # cut force ~ k * x, x ~ accel / delta1
    if boundary_cut[0]:
        p = np.zeros(n)
        p[0] = spec.stiffnesses[0] / delta1  # k * x of order k * a / omega1^2
        patterns.append(p)
    if boundary_cut[1]:
        p = np.zeros(n)
        p[-1] = spec.stiffnesses[-1] / delta1
        patterns.append(p)
    q = 1e-12 * input_scale**2 * np.eye(2 * n)
    for pattern in patterns:
        direction = b_mat @ pattern
        q = q + input_scale**2 * np.outer(direction, direction)
    return KalmanFilterState(
        x=np.zeros(2 * spec.n_dof),
        transition=a_mat,
        measurement=h,
        process_noise=q,
        measurement_noise=cv,
    )


def _noise_information(h, r):
    """H^T R^-1 H for each R of the (k, m, m) stack; ``h`` is shared or a (k, m, n) stack.

    Raises KalmanError if any R cannot be solved, with the condition number of ``r[0]``.
    """
    with np.errstate(all="ignore"):
        try:
            g = h.mT @ np.linalg.solve(r, h)
        except np.linalg.LinAlgError:
            g = np.nan
        if np.isfinite(g).all():
            return g
        raise KalmanError(
            f"singular measurement noise covariance (condition number {np.linalg.cond(r[0]):.3e})"
        )


def _steady_prior_covariance(a, h, q, r):
    """Stabilising solutions P of the filter Riccati equation, by doubling, one per R.

    P = A P A^T + Q - A P H^T (H P H^T + R)^-1 H P A^T is the steady prior
    covariance (Anderson & Moore, *Optimal Filtering*, 1979). ``r`` is a
    (k, m, m) stack, and A, H and Q are shared or stacks of k; the result is
    (k, n, n). Each doubling step takes the recursion from Q over twice as
    many steps (Anderson, "Second-order convergent algorithms for the
    steady-state Riccati equation", Int. J. Control 28(2), 1978). The systems
    double together, and each one is set aside once its own P no longer
    changes, which happens at the latest when its doubled closed-loop
    transition underflows to zero. So every slice is the solve of that system
    alone. A stack that fails raises KalmanError, and the one runner,
    ``_filters``, then solves its systems one at a time, each to its own outcome.
    """
    k, n = len(r), a.shape[-1]
    g = _noise_information(h, r)
    steady = np.empty((k, n, n))
    todo = np.arange(k)  # systems still doubling
    a_k, p = np.broadcast_to(a.mT, (k, n, n)), np.broadcast_to(q, (k, n, n))
    with np.errstate(all="ignore"):
        for doubling in range(1, 65):
            try:
                w = np.linalg.solve(np.eye(n) + g @ p, np.concatenate([a_k, g], axis=2))
            except np.linalg.LinAlgError:
                break
            w_a, w_g = w[..., :n], w[..., n:]
            p_next = p + a_k.mT @ p @ w_a
            if not np.isfinite(p_next).all():
                break
            settled = (p_next == p).all(axis=(1, 2))
            if settled.any():
                steady[todo[settled]] = p[settled]
                if settled.all():
                    return steady
                going = ~settled
                a_k, g, w_a, w_g, p_next, todo = (
                    v[going] for v in (a_k, g, w_a, w_g, p_next, todo)
                )
            g = g + a_k @ w_g @ a_k.mT
            a_k, p = a_k @ w_a, p_next
        else:
            raise KalmanError("the filter Riccati equation did not settle in 64 doublings")
    raise KalmanError(f"the filter Riccati equation has no finite steady state (doubling {doubling})")


def _stationary_gains(a, h, q, r):
    """Steady prior covariances P and transposed stationary gains K^T, one per R.

    Stacks as ``_steady_prior_covariance`` does; K = P H^T (H P H^T + R)^-1.
    """
    p = _steady_prior_covariance(a, h, q, r)
    hp = h @ p
    return p, np.linalg.solve(hp @ h.mT + r, hp)  # K^T = S^-1 H P


def _prefix_scan(a, h, gain_t, x0, measurements):
    """(T + 1, n) posterior states of one stationary filter, row 0 the initial state.

    ``gain_t`` is the (m, n) transposed gain and ``measurements`` the (m, T)
    block. The state follows x_t = x_{t-1} F + K m_t (row vectors) with one
    fixed F = (A - K H A)^T, run as a Hillis-Steele prefix scan (Blelloch,
    CMU-CS-90-190, 1990): pass s adds x_{t-s} F^s to every row t >= s, with s
    doubling and F squared after each pass, so T samples take
    ceil(log2(T + 1)) passes, each in row tiles of ``SCAN_BUFFER`` elements.
    A closed loop with an eigenvalue outside the unit circle (only a growing
    mode that no process noise drives and no channel measures has one) raises
    KalmanError once a power of F overflows.
    """
    n_steps, n = measurements.shape[1], a.shape[0]
    power = (a - gain_t.T @ (h @ a)).T  # F, then F^2, F^4, ...
    xs = np.empty((n_steps + 1, n))
    xs[0] = x0
    np.matmul(measurements.T, gain_t, out=xs[1:])  # the drive K m_t
    rows = max(1, min(n_steps, SCAN_BUFFER // n))
    carry = np.empty((rows, n))  # x_{t-s} F^s of one tile
    s = 1
    while True:
        # row tiles from the end backwards: a tile reads rows below its own end only,
        # which no earlier tile of this pass has changed
        hi = n_steps + 1
        while hi > s:
            lo = max(s, hi - rows)
            tile = carry[: hi - lo]
            np.matmul(xs[lo - s : hi - s], power, out=tile)
            xs[lo:hi] += tile
            hi = lo
        s *= 2
        if s > n_steps:
            return xs
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ power
        if not np.isfinite(power).all():
            raise KalmanError(
                f"the filter's closed loop is unstable: F^{s} overflows within {n_steps} samples"
            )


def _filters(a, h, q, r, x0, blocks):
    """Yield each of k stationary filters' (states, p, gain_t), or its lone run's KalmanError.

    ``r`` is the (k, m, m) stack of measurement noise covariances; A, H, Q, the
    initial state and the (m, T) block are shared or stacks of k. ``p`` and
    ``gain_t`` come from ``_stationary_gains``, solved in stacks of at most
    ``SCAN_BUFFER // n^2`` systems; only a stack that fails is solved again,
    one system at a time. ``states`` is the system's ``_prefix_scan``, run when
    its outcome is consumed. Every outcome equals the lone run's bit for bit.
    """
    k, n = len(r), a.shape[-1]
    a, h, q, blocks = (np.broadcast_to(v, (k, *v.shape[-2:])) for v in (a, h, q, blocks))
    x0 = np.broadcast_to(x0, (k, n))

    def solve(part):  # each system's (p, gain_t) from one doubling stack
        return list(zip(*_stationary_gains(a[part], h[part], q[part], r[part])))

    step = max(1, SCAN_BUFFER // (n * n))
    for lo in range(0, k, step):
        stack = range(lo, min(k, lo + step))
        try:
            gains = solve(slice(lo, stack.stop))
        except KalmanError:  # the error path: solve each system alone, to its own outcome
            gains = [None] * len(stack)
        for i, gain in zip(stack, gains):
            try:
                p, gain_t = gain or solve(slice(i, i + 1))[0]
                yield _prefix_scan(a[i], h[i], gain_t, x0[i], blocks[i]), p, gain_t
            except KalmanError as err:
                yield err.with_traceback(None)  # a kept error holds no frame, nor its arrays


def run_filter(state: KalmanFilterState, measurements: np.ndarray):
    """Filter a (rows, T) measurement block with the stationary gain.

    Returns (estimates, innovations): estimates are the posterior measurement
    predictions H x_post per step; innovations are m_t - H x_prior.

    The gain K = P H^T (H P H^T + R)^-1 comes from the steady prior
    covariance P of A, H, Q and R, so every sample runs through the
    time-invariant (Wiener) filter x <- (A - K H A) x + K m_t from
    ``state.x``, evaluated as a log-depth prefix scan over the block. This is
    the stack of one of ``_filters``, the runner every filter goes through.
    On return ``state.gain`` is K and ``state.P`` the steady posterior
    covariance; an empty block leaves the state untouched.
    """
    rows, n_steps = measurements.shape
    if rows != state.measurement.shape[0]:
        raise KalmanError("measurement block row count does not match the filter")
    if not n_steps:
        return np.empty((rows, 0)), np.empty((rows, 0))
    a, h = state.transition, state.measurement
    (outcome,) = _filters(
        a, h, state.process_noise, state.measurement_noise[None], state.x, measurements
    )
    if isinstance(outcome, KalmanError):
        raise outcome
    xs, p, gain_t = outcome
    p_post = p - gain_t.T @ (h @ p)
    state.x, state.P, state.gain = xs[-1].copy(), 0.5 * (p_post + p_post.T), gain_t.T
    return _outputs(a, h, xs, measurements)


def _outputs(a, h, xs, measurements):
    """(estimates H x_post, innovations m_t - H x_prior) of one filter's (T + 1, n) states."""
    return h @ xs[1:].T, measurements - (h @ a) @ xs[:-1].T


@dataclass
class ReconstructionResult:
    sensor_id: int
    reconstructed: SignalWindow
    residual: np.ndarray  # innovation trace at this channel
    quality: float | None = None  # correlation against ground truth, clipped to [0, 1]


def _scoped_filter(structure: StructureSpec, windows: dict, channels, scale_channels, config,
                   noise_var: dict | None):
    """Measurement block and filter factory for ``channels`` over their model scope.

    Channels without a window in ``windows`` get zero rows. The process-noise
    scale is the mean RMS of ``scale_channels``; channels missing from
    ``noise_var`` get variance (0.1 * scale)^2. The scope is the whole
    structure (``model_scope="full"``) or the sub-chain spanning the
    channels (a channel id is its structural DOF) plus ``scope_margin``,
    with each end that slices through the real structure marked as a
    boundary cut; equal sub-chains share one spec and its cached model.
    Returns (ref, block, make_filter): the first delivered window, the
    (channels, T) block and ``make_filter(inflated)``, which builds the
    filter with the channels in ``inflated`` variance-inflated. Raises
    KalmanError for channel ids outside the structure's DOFs and for
    delivered windows of unequal length.
    """
    outside = [ch for ch in channels if not 0 <= ch < structure.n_dof]
    if outside:
        raise KalmanError(f"channel ids {outside} are outside 0..{structure.n_dof - 1}")
    ref = next((windows[ch] for ch in channels if windows.get(ch) is not None), None)
    if ref is None:
        raise KalmanError("no channel delivered a window")
    lengths = sorted({windows[ch].length for ch in channels if windows.get(ch) is not None})
    if len(lengths) > 1:
        raise KalmanError(f"windows of unequal lengths {lengths} in one scope")
    block = np.zeros((len(channels), ref.length))
    for i, ch in enumerate(channels):
        if windows.get(ch) is not None:
            block[i] = windows[ch].samples
    scale = float(
        np.mean([np.sqrt(np.mean(block[channels.index(ch)] ** 2)) for ch in scale_channels])
    )
    noise_var = noise_var or {}
    variances = [float(noise_var.get(ch, (0.1 * scale) ** 2)) for ch in channels]
    scope, lo, hi = structure, 0, structure.n_dof - 1
    if config.model_scope != "full":
        lo = max(0, min(channels) - config.scope_margin)
        hi = min(structure.n_dof - 1, max(channels) + config.scope_margin)
        scope = structure.sub_chain(lo, hi)

    def make_filter(inflated) -> KalmanFilterState:
        return filter_for_structure(
            scope,
            [ch - lo for ch in channels],
            variances,
            inflated={ch - lo for ch in inflated},
            inflation=config.variance_inflation,
            input_scale=scale,
            boundary_cut=(lo > 0, hi < structure.n_dof - 1),
        )

    return ref, block, make_filter


@dataclass
class _Job:
    """One reconstruction's channels, faulty set, first delivered window, block and filter."""

    channels: list
    faulty: list
    ref: SignalWindow
    block: np.ndarray  # (channels, T)
    state: KalmanFilterState


def _reconstruction_job(faulty_set, all_windows, structure, config, noise_var):
    """The filter job of one reconstruction, or None when no channel is faulty."""
    channels = sorted(all_windows)
    unknown = sorted(set(faulty_set) - set(channels))
    if unknown:
        raise KalmanError(f"faulty channels {unknown} have no entry in the job's windows")
    faulty = set(faulty_set) | {ch for ch in channels if all_windows[ch] is None}
    if not faulty:
        return None
    healthy = [ch for ch in channels if ch not in faulty]
    if len(faulty) >= len(healthy):
        raise KalmanError(
            f"cannot reconstruct {sorted(faulty)}: only {len(healthy)} healthy channels "
            f"({healthy}) are available for coverage"
        )
    ref, block, make_filter = _scoped_filter(
        structure, all_windows, channels, healthy, config, noise_var
    )
    return _Job(channels, sorted(faulty), ref, block, make_filter(faulty))


def _results(job: _Job, states: np.ndarray, round_index: int, truth) -> list:
    """One ReconstructionResult per faulty channel of ``job`` from its filter's states."""
    est, innov = _outputs(job.state.transition, job.state.measurement, states, job.block)
    results = []
    for ch in job.faulty:
        row = job.channels.index(ch)
        rec_window = SignalWindow(
            sensor_id=ch,
            start_time=job.ref.start_time,
            dt=job.ref.dt,
            samples=est[row].copy(),  # a row, not all of ``est``, outlives the round
            round_index=round_index,
        )
        quality = None
        if truth is not None and ch in truth:
            t = np.asarray(truth[ch], dtype=float)
            denom = float(np.std(est[row]) * np.std(t))
            corr = 0.0 if denom == 0 else float(np.corrcoef(est[row], t)[0, 1])
            quality = max(0.0, min(1.0, corr))
        results.append(
            ReconstructionResult(
                sensor_id=ch, reconstructed=rec_window, residual=innov[row].copy(), quality=quality
            )
        )
    return results


def reconstruct_round(
    jobs,
    structure: StructureSpec,
    round_index: int = 0,
    config: ReconstructionConfig | None = None,
    noise_var: dict | None = None,
    truth: dict | None = None,
) -> list:
    """Run one round's reconstructions, each a ``(faulty_set, all_windows)`` job.

    Returns, per job in order, what ``reconstruct_signals(faulty_set,
    all_windows, structure, ...)`` returns, or the KalmanError that call
    raises. Jobs whose filters share state dimension n, channel count and
    block length run through ``_filters`` as one stack. Each job's results
    equal its lone call's bit for bit, and a job that fails leaves the others
    unaffected.
    """
    config = config or ReconstructionConfig()
    out = [None] * len(jobs)
    groups = {}  # (state dim, rows, T) -> [(job index, job)]
    for i, (faulty_set, all_windows) in enumerate(jobs):
        try:
            job = _reconstruction_job(faulty_set, all_windows, structure, config, noise_var)
        except KalmanError as err:
            out[i] = err.with_traceback(None)
            continue
        if job is None:
            out[i] = []
            continue
        groups.setdefault((job.state.x.size, *job.block.shape), []).append((i, job))
    for members in groups.values():
        stacks = (
            np.stack([getattr(job.state, name) for _, job in members])
            for name in ("transition", "measurement", "process_noise", "measurement_noise", "x")
        )
        outcomes = _filters(*stacks, np.stack([job.block for _, job in members]))
        for (i, job), outcome in zip(members, outcomes):
            failed = isinstance(outcome, KalmanError)
            out[i] = outcome if failed else _results(job, outcome[0], round_index, truth)
    return out


def reconstruct_signals(
    faulty_set,
    all_windows: dict,
    structure: StructureSpec,
    round_index: int = 0,
    config: ReconstructionConfig | None = None,
    noise_var: dict | None = None,
    truth: dict | None = None,
) -> list:
    """Reconstruct faulty channels from their neighbors' signals (one round).

    ``all_windows`` maps channel id -> SignalWindow or None (missing);
    channels that delivered nothing are treated as faulty with a zero
    substitute stream. ``noise_var`` holds healthy per-channel measurement
    noise variances (bootstrapped residual variances in the harness).
    Channel ids are structural DOFs. Returns one ReconstructionResult per
    faulty channel. This is the one-job case of ``reconstruct_round``.
    """
    (results,) = reconstruct_round(
        [(faulty_set, all_windows)], structure, round_index, config, noise_var, truth
    )
    if isinstance(results, KalmanError):
        raise results
    return results


def kl_divergence(y, y_est, edges) -> float:
    """Symmetrized binned KL divergence in bits over shared edges.

    0.5 * sum (p - q)(log2 p - log2 q) over the occupied bins, with a 1e-12
    probability floor; zero iff the two histograms coincide. Samples bin as
    in the MI statistic (``bin_indices``). Swapping the operands negates both
    factors exactly, so the result is symmetric bit for bit.
    """
    a, b = np.asarray(y, dtype=float), np.asarray(y_est, dtype=float)
    if a.size != b.size:
        raise KalmanError(f"window length mismatch: {a.size} vs {b.size}")
    edges = np.asarray(edges, dtype=float)
    p, q = (np.bincount(bin_indices(x, edges), minlength=edges.size - 1) / x.size for x in (a, b))
    occupied = (p > 0) | (q > 0)
    p, q = np.maximum(p[occupied], 1e-12), np.maximum(q[occupied], 1e-12)
    return float(0.5 * np.sum((p - q) * (np.log2(p) - np.log2(q))))


@dataclass
class MissingScanResult:
    lambdas: dict  # candidate channel -> mean KL over the remaining channels
    reported: int | None  # channel reported missing, or None
    margin: float  # min / median lambda ratio

    @property
    def best_candidate(self) -> int:
        return min(self.lambdas, key=lambda ch: (self.lambdas[ch], ch))


def missing_sensor_scan(
    node_set,
    windows: dict,
    structure: StructureSpec,
    config: ReconstructionConfig | None = None,
    noise_var: dict | None = None,
) -> MissingScanResult:
    """Locate a missing/failed sensor by leave-one-out filter agreement.

    For each candidate, the filter runs with that channel's variance inflated
    and the indicator is the mean symmetrized KL between measured and
    estimated signals over the remaining channels. The candidates' filters
    differ only in R, so they run through ``_filters`` as one stack, and the
    first candidate that fails raises its lone error. The candidate whose
    exclusion gives the smallest indicator is the missing one; a report is
    issued only when the min-to-median ratio falls below the configured
    threshold, so a fault-free neighborhood stays quiet.
    """
    config = config or ReconstructionConfig()
    node_set = sorted(set(node_set))
    if len(node_set) < 3:
        raise KalmanError("missing-sensor scan needs at least 3 nodes")
    present = [ch for ch in node_set if windows.get(ch) is not None]
    _, block, make_filter = _scoped_filter(
        structure, windows, node_set, present, config, noise_var
    )
    base = make_filter(())
    # candidate c's R is the base R with row c inflated, as make_filter({c}) builds it
    c = np.arange(len(node_set))
    r = np.repeat(base.measurement_noise[None], len(node_set), axis=0)
    r[c, c, c] *= config.variance_inflation
    h = base.measurement
    lambdas = {}
    for cand, outcome in zip(
        node_set, _filters(base.transition, h, base.process_noise, r, base.x, block)
    ):
        if isinstance(outcome, KalmanError):
            raise outcome
        est = h @ outcome[0][1:].T
        kls = []
        for i, ch in enumerate(node_set):
            if ch != cand:
                edges = default_edges((block[i], est[i]), SCAN_BINS)
                kls.append(kl_divergence(block[i], est[i], edges))
        lambdas[cand] = float(np.mean(kls))
    scan = MissingScanResult(lambdas=lambdas, reported=None, margin=1.0)
    med = float(np.median(list(lambdas.values())))
    if med > 0:
        scan.margin = float(lambdas[scan.best_candidate] / med)
    if scan.margin < config.scan_report_ratio:
        scan.reported = scan.best_candidate
    return scan
