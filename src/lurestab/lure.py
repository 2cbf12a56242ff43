"""Contraction certificates for LTI loops closed through cocoercive maps.

The certificate object is a pair (P, lambda) making the block matrix

    [ A^T P + P A + 2 eta P    P B + lambda K^T ]
    [ B^T P + lambda K        -2 lambda rho I_m ]

negative semidefinite.  Feasibility of that matrix inequality is equivalent
to the closed loop contracting at rate eta in the P-weighted norm, uniformly
over every rho-cocoercive feedback nonlinearity.  The block is homogeneous
in (P, lambda), so lambda = 1, and a Schur complement leaves a bounded-real
Riccati inequality (KYP lemma, Rantzer 1996).  The search is exact: it
bisects on eta with a Hamiltonian imaginary-axis test and takes P from the
stable invariant subspace through the Riccati kernel in ``linalg``; every
certificate passes ``verify_certificate`` before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    RiccatiError,
    as_matrix,
    cholesky,
    is_neg_semidefinite,
    require_no_overflow,
    require_symmetric,
    solve_lyapunov,
    stable_riccati,
)

# Hamiltonian eigenvalues with |Re| <= AXIS_TOL * (1 + |H|_F) lie on the
# imaginary axis; a probe whose spectrum comes closer than CLEAR_TOL is
# undecided (eigenvalues of a defective pair move by ~sqrt(machine eps)).
AXIS_TOL = 1e-8
CLEAR_TOL = 1e-6
# a returned block's top eigenvalue must sit this far below zero, relative
# to the block's norm, to stand clear of the eigensolver's rounding
CERT_MARGIN = 1e-12
# relative steps below the bracket at which the certificate is built, tried
# in turn: a defective mode at the rate limit makes P ill-conditioned there
RATE_BACKOFFS = (1e-6, 1e-4, 1e-2)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LtiPlant:
    """LTI pair dx/dt = A x + B u with A (n,n) and B (n,m)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "A")
        b = as_matrix(self.b, "B")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B rows {b.shape[0]} do not match A dim {a.shape[0]}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class LureCertificate:
    """Feasible point (P, eta, lambda, rho) plus the achieved LMI top eigenvalue."""

    p: np.ndarray
    eta: float
    lam: float
    rho: float
    lmi_max_eig: float

    def to_dict(self) -> dict:
        return {
            "P": [[float(v) for v in row] for row in np.asarray(self.p)],
            "eta": float(self.eta),
            "lambda": float(self.lam),
            "rho": float(self.rho),
            "lmi_max_eig": float(self.lmi_max_eig),
        }

    @staticmethod
    def from_dict(data: dict) -> "LureCertificate":
        return LureCertificate(
            p=np.asarray(data["P"], dtype=float),
            eta=float(data["eta"]),
            lam=float(data["lambda"]),
            rho=float(data["rho"]),
            lmi_max_eig=float(data["lmi_max_eig"]),
        )


@dataclass(frozen=True)
class CertSearchConfig:
    """Rate bracket and bisection resolution of the rate search."""

    eta_lo: float = 1e-4
    eta_hi: float | None = None
    bisect_tol: float = 1e-6

    def __post_init__(self):
        values = [self.eta_lo, self.bisect_tol] + ([] if self.eta_hi is None else [self.eta_hi])
        if not np.all(np.isfinite(values)):
            raise ValueError("eta_lo, eta_hi and bisect_tol must be finite")
        if self.eta_lo < 0 or (self.eta_hi is not None and self.eta_hi <= self.eta_lo):
            raise ValueError("need 0 <= eta_lo < eta_hi")
        if self.bisect_tol <= 0:
            raise ValueError("bisect_tol must be positive")


def _decay_rate(m: np.ndarray) -> float:
    """-alpha(M) = -max Re eig(M), the decay rate of dx/dt = M x (+0.0 for M = 0)."""
    return -float(np.linalg.eigvals(m).real.max()) + 0.0


def _rate_cap(plant: LtiPlant, k, rho: float) -> tuple[float, str]:
    """The decay rate that no certified rate exceeds, and a clause naming it.

    phi = 0 is rho-cocoercive, so every certificate also contracts
    dx/dt = A x, and no rate above -alpha(A) = -max Re eig(A) is
    certifiable.  For rho <= 1 so is phi(z) = z, and the closed loop's
    -alpha(A + B K) caps the rate too; the open loop wins a tie.  An
    A + B K past the float range raises DataOverflowError.
    """
    caps = [(_decay_rate(plant.a), "the open loop decays at -alpha(A)")]
    if rho <= 1.0:
        with np.errstate(over="ignore", invalid="ignore"):
            closed = plant.a + plant.b @ as_matrix(k, "K")
        caps.append((_decay_rate(require_no_overflow(closed, "A + B K")),
                     "the closed loop decays at -alpha(A + B K)"))
    rate, name = min(caps, key=lambda cap: cap[0])
    return rate, f"{name} = {rate:.6g}"


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    lmi_max_eig: float
    p_min_eig: float


@dataclass(frozen=True)
class FeasibilitySearchResult:
    """Verdict of one rate probe and, when feasible, its certificate.
    ``best_lmi_max_eig`` is the certificate's top block eigenvalue when
    feasible, the nonnegative infeasibility margin of the probe when
    infeasible, and the rejected block's top eigenvalue (0.0 when none was
    built) when inconclusive."""

    status: str
    certificate: LureCertificate | None
    best_lmi_max_eig: float


@dataclass(frozen=True)
class RateSearchResult:
    status: str
    eta_star: float | None
    certificate: LureCertificate | None
    bracket: tuple[float, float]
    probes: tuple[tuple[float, str], ...] = ()
    # why no rate was probed, when the bracket is empty
    reason: str | None = None
    # each probe's margin, in the order of probes: _probe's for the
    # bisection, best_lmi_max_eig for the certificate attempts
    margins: tuple[float, ...] = ()

    @property
    def feasibility_solves(self) -> int:
        return len(self.probes)


@dataclass(frozen=True)
class ContractionGapReport:
    max_gap: float
    worst_pair: tuple[np.ndarray, np.ndarray]
    samples: int


def assemble_lmi(plant: LtiPlant, k, p, eta: float, lam: float, rho: float) -> np.ndarray:
    """Assemble the (n+m) x (n+m) certificate block for the given data."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    a, b = plant.a, plant.b
    k = as_matrix(k, "K")
    p = require_symmetric(p, "P")
    n, m = plant.state_dim, plant.input_dim
    if k.shape != (m, n):
        raise ValueError(f"K must be ({m},{n}), got {k.shape}")
    if p.shape != (n, n):
        raise ValueError(f"P must be ({n},{n}), got {p.shape}")
    top_left = a.T @ p + p @ a + 2.0 * eta * p
    top_right = p @ b + lam * k.T
    bottom_right = -2.0 * lam * rho * np.eye(m)
    mat = np.block([[top_left, top_right], [top_right.T, bottom_right]])
    return 0.5 * (mat + mat.T)


def verify_certificate(plant: LtiPlant, k, cert: LureCertificate,
                       tol: float = 0.0) -> tuple[bool, VerificationReport]:
    """Re-check a certificate: P positive definite, lambda >= 0, eta > 0, LMI <= tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    factor = cholesky(cert.p)
    p_eigs = np.linalg.eigvalsh(require_symmetric(cert.p, "P"))
    mat = assemble_lmi(plant, k, cert.p, cert.eta, cert.lam, cert.rho)
    neg, lam_max = is_neg_semidefinite(mat, tol)
    passed = factor is not None and neg and cert.lam >= 0 and cert.eta > 0
    return passed, VerificationReport(
        passed=passed, lmi_max_eig=lam_max, p_min_eig=float(p_eigs[0])
    )


def _riccati_data(plant: LtiPlant, k: np.ndarray, rho: float, eta: float):
    """(A_t, R, Q) of the certificate's Riccati form at rate eta, lambda = 1.

    A term past the float range raises DataOverflowError, which names it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a_t = plant.a + plant.b @ k / (2.0 * rho) + eta * np.eye(plant.state_dim)
        r = plant.b @ plant.b.T / (2.0 * rho)
        q = k.T @ k / (2.0 * rho)
    return (require_no_overflow(a_t, "A + B K / (2 rho) + eta I"),
            require_no_overflow(r, "B B^T / (2 rho)"), require_no_overflow(q, "K^T K / (2 rho)"))


def _probe(plant: LtiPlant, k: np.ndarray, rho: float, eta: float) -> tuple[str, float]:
    """Decide whether rate eta is certifiable; returns (verdict, margin).

    With lambda = 1 the certificate's Schur complement is the bounded-real
    Riccati inequality for A_t = A + B K / (2 rho) + eta I, so eta is
    certifiable iff A_t is Hurwitz and |K (sI - A_t)^-1 B|_inf < 2 rho
    (Boyd, Balakrishnan & Kabamba 1989): the Hamiltonian
    [[A_t, B B^T / (2 rho)], [-K^T K / (2 rho), -A_t^T]] has no eigenvalue
    on the imaginary axis.  Real parts within AXIS_TOL of the axis count
    as on it, and a spectrum closer than CLEAR_TOL is left undecided.
    The margin of an infeasible probe is nonnegative: the spectral
    abscissa of A_t, or the relative excess of the loop gain over 2 rho
    at the crossing frequencies and their midpoints.
    """
    a_t, r, q = _riccati_data(plant, k, rho, eta)
    ham = np.block([[a_t, r], [-q, -a_t.T]])
    with np.errstate(over="ignore"):
        frobenius = float(np.linalg.norm(ham))
    if frobenius == np.inf:  # the sum of squares overflows: scale it first
        peak = float(np.abs(ham).max())
        frobenius = peak * float(np.linalg.norm(ham / peak))
    scale = 1.0 + frobenius
    abscissa = float(np.linalg.eigvals(a_t).real.max())
    if abscissa >= 0.0:
        return INFEASIBLE, abscissa
    eig = np.linalg.eigvals(ham)
    on_axis = np.abs(eig.real) <= AXIS_TOL * scale
    if on_axis.any():
        freqs = np.sort(eig[on_axis].imag)
        freqs = np.concatenate([freqs, 0.5 * (freqs[1:] + freqs[:-1])])
        n = plant.state_dim
        gain = max(np.linalg.norm(k @ np.linalg.solve(1j * w * np.eye(n) - a_t, plant.b), 2)
                   for w in freqs)
        return INFEASIBLE, max(0.0, float(gain) / (2.0 * rho) - 1.0)
    if abscissa > -CLEAR_TOL * scale or np.abs(eig.real).min() <= CLEAR_TOL * scale:
        return INCONCLUSIVE, 0.0
    return FEASIBLE, 0.0


def _stable_metric(plant: LtiPlant, k: np.ndarray, rho: float, eta: float) -> np.ndarray:
    """P > 0 with A_t^T P + P A_t + P R P + Q <= -eps I at a certifiable eta.

    The stabilizing Riccati solution P0 leaves the block only semidefinite,
    and is singular where K is.  With L = A_t + R P0 Hurwitz and
    L^T Y + Y L = -2 I, the Riccati form at P0 + eps Y is exactly
    -2 eps I + eps^2 Y R Y, so eps = 1 / |Y R Y| (at most 1) leaves
    -eps I: the first-order effect of adding eps I to Q, with eps as large
    as the second-order term allows.  Both solves use the one kernel.
    """
    a_t, r, q = _riccati_data(plant, k, rho, eta)
    p0 = stable_riccati(a_t, r, q)
    y = solve_lyapunov(a_t + r @ p0, 2.0 * np.eye(plant.state_dim))
    curvature = float(np.linalg.norm(y @ r @ y, 2))
    eps = 1.0 if curvature <= 1.0 else 1.0 / curvature
    return p0 + eps * y


def find_certificate(plant: LtiPlant, k, rho: float, eta: float) -> FeasibilitySearchResult:
    """Decide rate eta with one Hamiltonian probe and build (P, lambda = 1).

    A feasible probe yields P from the Riccati kernel; the certificate is
    returned only if verify_certificate accepts it at tol = 0 with its top
    eigenvalue at most -CERT_MARGIN times the block's norm, otherwise the
    outcome is inconclusive.
    """
    if eta <= 0 or rho <= 0:
        raise ValueError("eta and rho must be positive")
    k = as_matrix(k, "K")
    verdict, margin = _probe(plant, k, rho, eta)
    if verdict != FEASIBLE:
        return FeasibilitySearchResult(verdict, None, margin)
    try:
        p = _stable_metric(plant, k, rho, eta)
    except RiccatiError:
        return FeasibilitySearchResult(INCONCLUSIVE, None, 0.0)
    cert = LureCertificate(p=p, eta=eta, lam=1.0, rho=rho, lmi_max_eig=0.0)
    passed, report = verify_certificate(plant, k, cert, tol=0.0)
    block_norm = float(np.linalg.norm(assemble_lmi(plant, k, p, eta, 1.0, rho), 2))
    if not passed or report.lmi_max_eig > -CERT_MARGIN * block_norm:
        return FeasibilitySearchResult(INCONCLUSIVE, None, report.lmi_max_eig)
    cert = replace(cert, lmi_max_eig=report.lmi_max_eig)
    return FeasibilitySearchResult(FEASIBLE, cert, report.lmi_max_eig)


def max_contraction_rate(plant: LtiPlant, k, rho: float = 1.0,
                         cfg: CertSearchConfig | None = None) -> RateSearchResult:
    """Maximize the certified rate by bisection on eta with Hamiltonian probes.

    Feasibility is monotone: raising eta only adds a positive multiple of P
    to the (1,1) block, so a rate above a failed probe never certifies.
    The bracket's top is _rate_cap's decay rate, or eta_hi when that is
    smaller; when it is at or below eta_lo the loop's decay caps the rate
    there (or eta_hi is set at or below it), and the result is infeasible
    with no probe and a reason that names the binding bound.
    An undecided probe is treated as a failed one.  Once the bracket is
    narrower than ``bisect_tol``, or its ends are adjacent floats (whose
    midpoint is one of them), the certificate is built at lo * (1 - b),
    just below the bracket, for the first b in RATE_BACKOFFS whose
    certificate verifies; none verifying is inconclusive.
    ``probes`` records every probe as (eta, verdict) in order, the
    certificate attempts last, and ``margins`` their margins.  Plant,
    gain and rho whose Riccati data pass the float range raise
    DataOverflowError.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    cfg = cfg or CertSearchConfig()
    k = as_matrix(k, "K")
    eta_lo = max(cfg.eta_lo, 1e-12)
    cap, clause = _rate_cap(plant, k, rho)
    eta_hi = cap if cfg.eta_hi is None else min(cfg.eta_hi, cap)
    probes: list[tuple[float, str]] = []
    margins: list[float] = []

    def probe(eta: float) -> str:
        verdict, margin = _probe(plant, k, rho, eta)
        probes.append((eta, verdict))
        margins.append(margin)
        return verdict

    def result(status, eta_star=None, cert=None, reason=None) -> RateSearchResult:
        return RateSearchResult(status, eta_star, cert, (eta_lo, eta_hi), tuple(probes),
                                reason, tuple(margins))

    if eta_hi <= eta_lo:
        if cap <= eta_lo:
            reason = (f"{clause}, at or below eta_lo = {eta_lo:.6g}, "
                      "so no faster rate is certifiable")
        else:
            reason = (f"the configured eta_hi = {cfg.eta_hi:.6g} is at or below eta_lo = "
                      f"{eta_lo:.6g}; {clause}")
        return result(INFEASIBLE, reason=reason)
    first = probe(eta_lo)
    if first != FEASIBLE:
        return result(first)
    lo, hi = eta_lo, eta_hi
    if probe(eta_hi) == FEASIBLE:
        lo = eta_hi
    while hi - lo > cfg.bisect_tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if probe(mid) == FEASIBLE:
            lo = mid
        else:
            hi = mid
    for backoff in RATE_BACKOFFS:
        eta_cert = max(lo * (1.0 - backoff), eta_lo)
        final = find_certificate(plant, k, rho, eta_cert)
        probes.append((eta_cert, final.status))
        margins.append(final.best_lmi_max_eig)
        if final.status == FEASIBLE:
            return result(FEASIBLE, eta_cert, final.certificate)
        if eta_cert == eta_lo:
            break
    return result(INCONCLUSIVE)


def check_cocoercivity(phi, rho: float, sample_pairs) -> float:
    """Largest violation of rho |phi(y1)-phi(y2)|^2 <= (phi(y1)-phi(y2))^T (y1-y2).

    Nonpositive return means every sampled pair satisfies the cocoercivity
    inequality.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    pairs = list(sample_pairs)
    if not pairs:
        raise ValueError("sample_pairs must be non-empty")
    worst = -np.inf
    for y1, y2 in pairs:
        d_phi = np.asarray(phi(y1), dtype=float) - np.asarray(phi(y2), dtype=float)
        d_y = np.asarray(y1, dtype=float) - np.asarray(y2, dtype=float)
        violation = rho * float(d_phi @ d_phi) - float(d_phi @ d_y)
        worst = max(worst, violation)
    return worst


def contraction_gap(closed_loop_field, p, eta: float, sample_pairs) -> ContractionGapReport:
    """Sampled check of (F(y1)-F(y2))^T P (y1-y2) <= -eta |y1-y2|_P^2.

    max_gap <= 0 over all pairs is the sampled form of the contraction
    inequality for the frozen-constraint field.
    """
    p = require_symmetric(p, "P")
    if cholesky(p) is None:
        raise ValueError("P must be positive definite")
    pairs = list(sample_pairs)
    if not pairs:
        raise ValueError("sample_pairs must be non-empty")
    worst = -np.inf
    worst_pair = pairs[0]
    for y1, y2 in pairs:
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        d = y1 - y2
        df = np.asarray(closed_loop_field(y1), dtype=float) - np.asarray(
            closed_loop_field(y2), dtype=float
        )
        gap = float(df @ (p @ d)) + eta * float(d @ (p @ d))
        if gap > worst:
            worst = gap
            worst_pair = (y1, y2)
    return ContractionGapReport(max_gap=worst, worst_pair=worst_pair, samples=len(pairs))
