"""Continuous-time Markov chain solvers.

Provides steady-state and transient solutions for the CTMCs produced
from SAN reachability graphs (directly for all-exponential models, or
after phase-type unfolding for models with deterministic timers).

Steady state solves the global balance equations ``pi Q = 0``,
``sum(pi) = 1``.  Two families of solvers are available:

* the **direct** path replaces one balance equation with the
  normalisation constraint and factorises (dense below
  ``_DENSE_LIMIT`` states, sparse LU above); a residual check rejects
  chains for which that system is (numerically) singular, e.g. chains
  with several recurrent classes;
* the **iterative** path (:meth:`CTMC.steady_state_solve` with a
  :class:`SteadyStateWarmStart`) anchors the system at a
  high-probability state, deletes that row/column, and runs
  LU-preconditioned GMRES warm-started from a previous solution --
  built for sweeps over many nearby chains, where it converges in a
  handful of iterations.  Any convergence or residual failure falls
  back to the direct path automatically (``method="auto"``).

Transient solutions use uniformisation (Jensen's method) with an
adaptive Poisson truncation.

``scipy.sparse`` and ``scipy.sparse.linalg`` are imported inside the
methods that build or solve a chain, not at module level: importing
this module (and every package above it) costs no scipy, and a process
that never builds a :class:`CTMC` -- a fault campaign, a protocol
Monte-Carlo run -- never loads them.  After the first construction the
import is a ``sys.modules`` lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, SolverError
from repro.san.reachability import StateSpace

if TYPE_CHECKING:
    from scipy import sparse
    from scipy.sparse import linalg as sparse_linalg

__all__ = [
    "CTMC",
    "SteadyStateSolution",
    "SteadyStateWarmStart",
    "from_state_space",
    "marking_probabilities",
]

#: Above this size the direct solver switches from dense to sparse
#: linear algebra.
_DENSE_LIMIT = 1500

#: Below this size a direct solve is cheaper than the GMRES machinery;
#: warm starts are neither built nor used.
_ITERATIVE_MIN_STATES = 64

#: GMRES inner (Krylov) dimension per restart cycle, and the number of
#: restart cycles before the iterative path gives up and falls back.
_GMRES_RESTART = 60
_GMRES_MAX_RESTARTS = 8

#: Relative tolerance for the GMRES residual on the anchored system --
#: tight, so re-rated sweeps agree with the direct path to ~1e-12.
_GMRES_RTOL = 1e-12

#: When a warm-started solve needs more inner iterations than this, the
#: preconditioner has drifted too far from the current operating point;
#: refactorise it at the new solution instead of carrying it forward.
#: An ILU refactorisation costs roughly 40-60 iterations' worth of
#: triangular solves at typical unfolded sizes, so the threshold sits
#: where a refresh pays for itself within a few sweep points.
_REFRESH_PRECONDITIONER_AFTER = 25

#: Incomplete-LU parameters for the preconditioner.  An ILU keeps the
#: triangular solves ~4x cheaper than an exact LU at this sparsity and
#: is cheap enough to refactorise whenever the sweep drifts;
#: preconditioner quality only affects the iteration count, never the
#: answer (the residual checks gate correctness).
_ILU_DROP_TOL = 1e-6
_ILU_FILL_FACTOR = 10.0

#: A warm start whose anchor carries less stationary mass than this is
#: useless (the anchored system is scaled by ``1 / pi[anchor]``).
_MIN_ANCHOR_MASS = 1e-12


class SteadyStateWarmStart:
    """Opaque warm-start state carried between steady-state solves.

    Produced by :meth:`CTMC.steady_state_solve` with
    ``prepare_warm_start=True`` and fed back on the next (nearby) chain.
    Holds the previous solution ``pi``, the anchor state (a
    high-probability state whose balance row/column is deleted from the
    solved system), and an incomplete-LU factorisation of a previous
    anchored matrix used as the GMRES preconditioner.
    """

    __slots__ = ("pi", "anchor", "num_states", "_preconditioner")

    def __init__(
        self,
        pi: np.ndarray,
        anchor: int,
        num_states: int,
        preconditioner: Optional[sparse_linalg.LinearOperator],
    ):
        self.pi = pi
        self.anchor = anchor
        self.num_states = num_states
        self._preconditioner = preconditioner


@dataclass
class SteadyStateSolution:
    """A steady-state solve plus how it was obtained.

    ``method`` is one of ``"trivial"``, ``"dense-direct"``,
    ``"sparse-direct"`` or ``"gmres"``; ``iterations`` counts GMRES
    inner iterations (0 for direct solves); ``fallback`` records why an
    attempted iterative solve was abandoned (``None`` when it was not);
    ``warm_start`` is the state to feed into the next solve when
    ``prepare_warm_start`` was requested.
    """

    pi: np.ndarray
    method: str
    iterations: int = 0
    residual: float = 0.0
    warm_started: bool = False
    fallback: Optional[str] = None
    warm_start: Optional[SteadyStateWarmStart] = None


def _gmres(matrix, rhs, **kwargs):
    """scipy's gmres across the ``tol`` -> ``rtol`` rename."""
    from scipy.sparse import linalg as sparse_linalg

    try:
        return sparse_linalg.gmres(matrix, rhs, **kwargs)
    except TypeError:  # pragma: no cover - older scipy
        kwargs["tol"] = kwargs.pop("rtol")
        return sparse_linalg.gmres(matrix, rhs, **kwargs)


class CTMC:
    """A finite CTMC given by transitions ``(source, target, rate)``."""

    def __init__(
        self,
        num_states: int,
        transitions: Sequence[Tuple[int, int, float]],
        *,
        initial_distribution: Optional[Sequence[Tuple[float, int]]] = None,
    ):
        if num_states < 1:
            raise ModelError(f"CTMC needs at least one state, got {num_states}")
        self.num_states = num_states
        rows, cols, rates = [], [], []
        for source, target, rate in transitions:
            if rate < 0:
                raise ModelError(
                    f"negative rate {rate} on transition {source}->{target}"
                )
            if not (0 <= source < num_states and 0 <= target < num_states):
                raise ModelError(
                    f"transition {source}->{target} outside state range"
                )
            if rate == 0.0 or source == target:
                continue
            rows.append(source)
            cols.append(target)
            rates.append(float(rate))
        from scipy import sparse

        rate_matrix = sparse.coo_matrix(
            (rates, (rows, cols)), shape=(num_states, num_states)
        ).tocsr()
        rate_matrix.sum_duplicates()
        self._rate_matrix = rate_matrix
        self._exit_rates = np.asarray(rate_matrix.sum(axis=1)).ravel()
        if initial_distribution is None:
            initial_distribution = [(1.0, 0)]
        self.initial_distribution = list(initial_distribution)

    @classmethod
    def from_arrays(
        cls,
        num_states: int,
        source: np.ndarray,
        target: np.ndarray,
        rates: np.ndarray,
        *,
        initial_distribution: Optional[Sequence[Tuple[float, int]]] = None,
    ) -> "CTMC":
        """Build a CTMC from parallel transition arrays without the
        per-transition Python loop (the re-rate hot path of
        :meth:`repro.san.assembled.AssembledChain.rerate`).

        Validation mirrors ``__init__`` (negative rates and
        out-of-range endpoints raise :class:`ModelError`; zero-rate and
        self-loop entries are dropped) but runs vectorised.
        """
        if num_states < 1:
            raise ModelError(f"CTMC needs at least one state, got {num_states}")
        source = np.asarray(source, dtype=np.int64).ravel()
        target = np.asarray(target, dtype=np.int64).ravel()
        rates = np.asarray(rates, dtype=float).ravel()
        if not (source.shape == target.shape == rates.shape):
            raise ModelError(
                f"transition arrays disagree in length: {source.shape}, "
                f"{target.shape}, {rates.shape}"
            )
        if rates.size:
            worst = int(np.argmin(rates))
            if rates[worst] < 0:
                raise ModelError(
                    f"negative rate {rates[worst]} on transition "
                    f"{source[worst]}->{target[worst]}"
                )
            if (
                source.min() < 0
                or target.min() < 0
                or source.max() >= num_states
                or target.max() >= num_states
            ):
                raise ModelError("transition endpoints outside state range")
        keep = (rates != 0.0) & (source != target)
        from scipy import sparse

        rate_matrix = sparse.coo_matrix(
            (rates[keep], (source[keep], target[keep])),
            shape=(num_states, num_states),
        ).tocsr()
        rate_matrix.sum_duplicates()
        chain = cls.__new__(cls)
        chain.num_states = num_states
        chain._rate_matrix = rate_matrix
        chain._exit_rates = np.asarray(rate_matrix.sum(axis=1)).ravel()
        if initial_distribution is None:
            initial_distribution = [(1.0, 0)]
        chain.initial_distribution = list(initial_distribution)
        return chain

    # ------------------------------------------------------------------
    # Matrices
    # ------------------------------------------------------------------
    @property
    def generator(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q`` (sparse CSR)."""
        from scipy import sparse

        diagonal = sparse.diags(-self._exit_rates)
        return (self._rate_matrix + diagonal).tocsr()

    @property
    def exit_rates(self) -> np.ndarray:
        """Total outgoing rate per state."""
        return self._exit_rates.copy()

    def initial_vector(self) -> np.ndarray:
        """The initial probability vector as a dense array."""
        p0 = np.zeros(self.num_states)
        for prob, state in self.initial_distribution:
            p0[state] += prob
        total = p0.sum()
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ModelError(f"initial distribution sums to {total}")
        return p0

    # ------------------------------------------------------------------
    # Steady state
    # ------------------------------------------------------------------
    def steady_state(self, *, residual_tolerance: float = 1e-8) -> np.ndarray:
        """Stationary distribution ``pi`` with ``pi Q = 0``, ``sum = 1``.

        Raises :class:`SolverError` if the balance system is singular or
        the solution fails the residual / non-negativity checks (e.g.
        the chain has several recurrent classes).
        """
        n = self.num_states
        if n == 1:
            return np.array([1.0])
        pi, _residual, _method = self._direct_solve(residual_tolerance)
        return pi

    def steady_state_solve(
        self,
        *,
        method: str = "auto",
        warm_start: Optional[SteadyStateWarmStart] = None,
        residual_tolerance: float = 1e-8,
        rtol: float = _GMRES_RTOL,
        prepare_warm_start: bool = False,
    ) -> SteadyStateSolution:
        """Steady state with solver selection, warm starts and stats.

        ``method``:

        * ``"auto"`` -- iterative when a compatible warm start is
          available, with automatic fallback to direct on any failure
          (the fallback reason is recorded on the solution);
        * ``"direct"`` -- always the factorisation path of
          :meth:`steady_state`;
        * ``"iterative"`` -- require the warm-started GMRES path; raise
          :class:`SolverError` instead of falling back.

        With ``prepare_warm_start`` the returned solution carries a
        :class:`SteadyStateWarmStart` for the next solve of a nearby
        chain (same state count).
        """
        if method not in ("auto", "direct", "iterative"):
            raise ModelError(
                f"unknown steady-state method {method!r}; expected "
                "'auto', 'direct' or 'iterative'"
            )
        n = self.num_states
        if n == 1:
            return SteadyStateSolution(pi=np.array([1.0]), method="trivial")

        fallback: Optional[str] = None
        usable = (
            warm_start is not None
            and warm_start.num_states == n
            and 0 <= warm_start.anchor < n
            and n >= _ITERATIVE_MIN_STATES
        )
        if method == "iterative" and not usable:
            raise SolverError(
                "iterative steady state needs a compatible warm start "
                f"(num_states={n}, warm_start="
                f"{None if warm_start is None else warm_start.num_states})"
            )
        if usable and method in ("auto", "iterative"):
            try:
                return self._iterative_solve(
                    warm_start,
                    residual_tolerance=residual_tolerance,
                    rtol=rtol,
                    prepare_warm_start=prepare_warm_start,
                )
            except SolverError as exc:
                if method == "iterative":
                    raise
                fallback = str(exc)
        elif warm_start is not None and not usable and method == "auto":
            fallback = (
                f"warm start incompatible (chain has {n} states, warm start "
                f"has {warm_start.num_states})"
            )
        elif (
            method == "auto"
            and warm_start is None
            and prepare_warm_start
            and n >= _ITERATIVE_MIN_STATES
        ):
            # Cold start of a sweep: the caller wants warm-start state,
            # so an ILU is being built anyway -- factor it at this very
            # matrix and solve with it (GMRES then converges in a
            # handful of iterations), which beats the direct
            # factorisation at typical unfolded sizes.
            try:
                return self._cold_iterative_solve(
                    residual_tolerance=residual_tolerance, rtol=rtol
                )
            except SolverError as exc:
                fallback = str(exc)

        pi, residual, how = self._direct_solve(residual_tolerance)
        prepared = None
        if prepare_warm_start:
            prepared = self._prepare_warm_start(pi)
        return SteadyStateSolution(
            pi=pi,
            method=how,
            residual=residual,
            fallback=fallback,
            warm_start=prepared,
        )

    def _direct_solve(
        self, residual_tolerance: float
    ) -> Tuple[np.ndarray, float, str]:
        """The factorisation path: replace the last balance equation
        with the normalisation row and solve."""
        n = self.num_states
        q_transpose = self.generator.transpose().tocsr()
        if n <= _DENSE_LIMIT:
            matrix = q_transpose.toarray()
            matrix[-1, :] = 1.0
            rhs = np.zeros(n)
            rhs[-1] = 1.0
            try:
                pi = np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"steady-state system is singular: {exc}") from exc
            how = "dense-direct"
        else:
            from scipy import sparse
            from scipy.sparse import linalg as sparse_linalg

            # Stacking rows builds the same matrix as assigning into a
            # LIL copy, without the costly per-row conversion.
            ones_row = sparse.csr_matrix(np.ones((1, n)))
            matrix = sparse.vstack([q_transpose[:-1, :], ones_row]).tocsc()
            rhs = np.zeros(n)
            rhs[-1] = 1.0
            try:
                pi = sparse_linalg.spsolve(matrix, rhs)
            except Exception as exc:  # scipy raises several types here
                raise SolverError(f"sparse steady-state solve failed: {exc}") from exc
            how = "sparse-direct"
        residual = self._check_solution(pi, q_transpose, residual_tolerance)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum(), residual, how

    def _check_solution(
        self,
        pi: np.ndarray,
        q_transpose: sparse.csr_matrix,
        residual_tolerance: float,
    ) -> float:
        """Shared finite / residual / negativity checks; returns the
        residual."""
        if np.any(~np.isfinite(pi)):
            raise SolverError("steady-state solution contains non-finite entries")
        residual = float(np.abs(q_transpose @ pi).max())
        scale = max(1.0, float(self._exit_rates.max(initial=1.0)))
        if residual > residual_tolerance * scale:
            raise SolverError(
                f"steady-state residual {residual:.3e} exceeds tolerance; "
                "the chain may not have a unique stationary distribution"
            )
        if pi.min() < -1e-8:
            raise SolverError(
                f"steady-state solution has negative mass ({pi.min():.3e}); "
                "the chain may be reducible"
            )
        return residual

    def _anchored_system(
        self, anchor: int
    ) -> Tuple[sparse.csr_matrix, sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Delete the anchor row/column of ``Q^T``; with ``pi[anchor]``
        pinned to 1, the stationary equations become the nonsingular
        system ``A x = -c`` over the remaining states."""
        n = self.num_states
        q_transpose = self.generator.transpose().tocsr()
        keep = np.flatnonzero(np.arange(n) != anchor)
        rows = q_transpose[keep]
        reduced = rows[:, keep]
        column = rows[:, anchor].toarray().ravel()
        return q_transpose, reduced, column, keep

    def _prepare_warm_start(
        self, pi: np.ndarray
    ) -> Optional[SteadyStateWarmStart]:
        """Build warm-start state anchored at ``argmax(pi)`` with an
        incomplete-LU factorisation of the anchored matrix as
        preconditioner.
        Returns ``None`` when the chain is too small or the
        factorisation fails -- a missing warm start only costs speed."""
        n = self.num_states
        if n < _ITERATIVE_MIN_STATES:
            return None
        anchor = int(np.argmax(pi))
        if pi[anchor] < _MIN_ANCHOR_MASS:
            return None
        from scipy.sparse import linalg as sparse_linalg

        try:
            _, reduced, _, _ = self._anchored_system(anchor)
            lu = sparse_linalg.spilu(
                reduced.tocsc(),
                drop_tol=_ILU_DROP_TOL,
                fill_factor=_ILU_FILL_FACTOR,
            )
            preconditioner = sparse_linalg.LinearOperator(
                shape=(n - 1, n - 1), matvec=lu.solve
            )
        except Exception:  # pragma: no cover - singular/failed factorisation
            return None
        return SteadyStateWarmStart(
            pi=np.asarray(pi, dtype=float).copy(),
            anchor=anchor,
            num_states=n,
            preconditioner=preconditioner,
        )

    def _anchored_gmres(
        self,
        anchor: int,
        x0: Optional[np.ndarray],
        preconditioner: Optional[sparse_linalg.LinearOperator],
        *,
        residual_tolerance: float,
        rtol: float,
    ) -> Tuple[np.ndarray, float, int]:
        """Solve the anchored system with preconditioned GMRES and run
        the full-chain residual checks; returns ``(pi, residual,
        iterations)`` or raises :class:`SolverError`."""
        n = self.num_states
        q_transpose, reduced, column, keep = self._anchored_system(anchor)

        iterations = 0

        def count(_residual_norm: float) -> None:
            nonlocal iterations
            iterations += 1

        x, info = _gmres(
            reduced,
            -column,
            x0=x0,
            M=preconditioner,
            rtol=rtol,
            atol=0.0,
            restart=_GMRES_RESTART,
            maxiter=_GMRES_MAX_RESTARTS,
            callback=count,
            callback_type="pr_norm",
        )
        if info != 0:
            raise SolverError(
                f"GMRES did not converge (info={info}) after "
                f"{iterations} iterations"
            )
        pi = np.empty(n)
        pi[keep] = x
        pi[anchor] = 1.0
        total = float(pi.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise SolverError(
                f"iterative steady state produced unnormalisable mass {total!r}"
            )
        pi /= total
        residual = self._check_solution(pi, q_transpose, residual_tolerance)
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        return pi, residual, iterations

    def _iterative_solve(
        self,
        warm_start: SteadyStateWarmStart,
        *,
        residual_tolerance: float,
        rtol: float,
        prepare_warm_start: bool,
    ) -> SteadyStateSolution:
        n = self.num_states
        anchor = warm_start.anchor
        previous = np.asarray(warm_start.pi, dtype=float)
        if previous.shape != (n,):
            raise SolverError(
                f"warm-start pi has shape {previous.shape}, expected ({n},)"
            )
        mass = float(previous[anchor])
        if mass < _MIN_ANCHOR_MASS:
            raise SolverError(
                f"warm-start anchor {anchor} carries negligible mass ({mass:.3e})"
            )
        keep = np.flatnonzero(np.arange(n) != anchor)
        x0 = previous[keep] / mass
        pi, residual, iterations = self._anchored_gmres(
            anchor,
            x0,
            warm_start._preconditioner,
            residual_tolerance=residual_tolerance,
            rtol=rtol,
        )
        prepared = None
        if prepare_warm_start:
            if iterations > _REFRESH_PRECONDITIONER_AFTER:
                # The carried ILU has drifted; refactorise at this point.
                prepared = self._prepare_warm_start(pi)
            if prepared is None:
                prepared = SteadyStateWarmStart(
                    pi=pi.copy(),
                    anchor=anchor,
                    num_states=n,
                    preconditioner=warm_start._preconditioner,
                )
        return SteadyStateSolution(
            pi=pi,
            method="gmres",
            iterations=iterations,
            residual=residual,
            warm_started=True,
            warm_start=prepared,
        )

    def _cold_iterative_solve(
        self, *, residual_tolerance: float, rtol: float
    ) -> SteadyStateSolution:
        """First solve of a sweep: anchor at the heaviest initial
        state, factor an ILU of the anchored matrix and solve with it.
        The anchor is only a heuristic -- the residual checks reject a
        bad pick and the caller falls back to the direct path."""
        n = self.num_states
        weights = np.zeros(n)
        for probability, state in self.initial_distribution:
            weights[state] += probability
        anchor = int(np.argmax(weights))
        _, reduced, _, _ = self._anchored_system(anchor)
        from scipy.sparse import linalg as sparse_linalg

        try:
            ilu = sparse_linalg.spilu(
                reduced.tocsc(),
                drop_tol=_ILU_DROP_TOL,
                fill_factor=_ILU_FILL_FACTOR,
            )
            preconditioner = sparse_linalg.LinearOperator(
                shape=(n - 1, n - 1), matvec=ilu.solve
            )
        except Exception as exc:
            raise SolverError(f"ILU factorisation failed: {exc}") from exc
        pi, residual, iterations = self._anchored_gmres(
            anchor,
            None,
            preconditioner,
            residual_tolerance=residual_tolerance,
            rtol=rtol,
        )
        prepared = SteadyStateWarmStart(
            pi=pi.copy(),
            anchor=anchor,
            num_states=n,
            preconditioner=preconditioner,
        )
        return SteadyStateSolution(
            pi=pi,
            method="gmres",
            iterations=iterations,
            residual=residual,
            warm_started=False,
            warm_start=prepared,
        )

    # ------------------------------------------------------------------
    # Transient analysis (uniformisation)
    # ------------------------------------------------------------------
    def transient(
        self,
        time: float,
        *,
        initial: Optional[np.ndarray] = None,
        tolerance: float = 1e-10,
    ) -> np.ndarray:
        """State distribution at ``time`` by uniformisation.

        ``time`` must be finite and non-negative (an infinite horizon
        would never finish splitting into steps; ask
        :meth:`steady_state` for the limit).  An explicit ``initial``
        vector is validated up front (length, finiteness,
        non-negativity, normalisation) -- a malformed one raises
        :class:`ModelError` instead of failing deep inside the matrix
        products or silently broadcasting.
        """
        if not math.isfinite(time):
            raise ModelError(f"time must be finite, got {time}")
        if time < 0:
            raise ModelError(f"time must be >= 0, got {time}")
        if initial is None:
            p = self.initial_vector()
        else:
            p = np.asarray(initial, dtype=float)
            if p.shape != (self.num_states,):
                raise ModelError(
                    f"initial distribution has shape {p.shape}, expected "
                    f"({self.num_states},)"
                )
            if np.any(~np.isfinite(p)):
                raise ModelError(
                    "initial distribution contains non-finite entries"
                )
            if p.min() < 0.0:
                raise ModelError(
                    f"initial distribution has negative mass "
                    f"({float(p.min()):.3e})"
                )
            total = float(p.sum())
            if not math.isclose(total, 1.0, abs_tol=1e-9):
                raise ModelError(f"initial distribution sums to {total}")
        if time == 0.0:
            return p.copy()
        lam = float(self._exit_rates.max(initial=0.0))
        if lam == 0.0:
            return p.copy()
        lam *= 1.02  # keep the DTMC strictly substochastic off the diagonal
        from scipy import sparse

        dtmc = self._rate_matrix / lam + sparse.diags(1.0 - self._exit_rates / lam)
        dtmc = dtmc.tocsr()

        def step(vector: np.ndarray, dt: float) -> np.ndarray:
            # Poisson-weighted sum, truncated when the tail < tolerance.
            poisson_mean = lam * dt
            term = vector
            weight = math.exp(-poisson_mean)
            result = weight * term
            accumulated = weight
            k = 0
            max_terms = int(poisson_mean + 20.0 * math.sqrt(poisson_mean) + 200)
            while 1.0 - accumulated > tolerance and k < max_terms:
                k += 1
                term = term @ dtmc
                weight *= poisson_mean / k
                result += weight * term
                accumulated += weight
            return np.asarray(result).ravel()

        # Split long horizons so exp(-lam*dt) never underflows (the
        # classic uniformisation instability for lam*t >> 1).
        max_mean_per_step = 400.0
        remaining = time
        vector = p.copy()
        while remaining > 0.0:
            dt = min(remaining, max_mean_per_step / lam)
            vector = step(vector, dt)
            remaining -= dt
        return vector


def from_state_space(space: StateSpace) -> CTMC:
    """Build a CTMC from an all-exponential :class:`StateSpace`.

    Raises :class:`ModelError` if the state space contains general
    (non-exponential) transitions; unfold those with
    :func:`repro.san.assembled.assemble` and build the CTMC with
    :meth:`~repro.san.assembled.AssembledChain.rerate`.
    """
    if not space.is_markovian:
        names = sorted({t.activity for t in space.general})
        raise ModelError(
            "state space contains non-exponential activities "
            f"{names}; apply phase-type unfolding first"
        )
    transitions = [(t.source, t.target, t.rate) for t in space.markovian]
    return CTMC(
        len(space),
        transitions,
        initial_distribution=[(p, s) for p, s in space.initial_distribution],
    )


def marking_probabilities(
    space: StateSpace, pi: np.ndarray
) -> Dict[Tuple[int, ...], float]:
    """Aggregate a stationary vector over the space's markings.

    Markings are interned (unique per state), so this is a relabelling;
    the single ``tolist`` conversion avoids a per-state ``float()``
    call on 10k+ state vectors.
    """
    result: Dict[Tuple[int, ...], float] = {}
    values = np.asarray(pi, dtype=float).tolist()
    for marking, probability in zip(space.markings, values):
        result[marking] = result.get(marking, 0.0) + probability
    return result
