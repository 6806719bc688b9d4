"""Continuous-time Markov chain solvers.

Provides steady-state and transient solutions for the CTMCs produced
from SAN reachability graphs: :func:`repro.san.assembled.assemble`
unfolds a state space (exponential or with deterministic timers) into
the chain that :meth:`~repro.san.assembled.AssembledChain.rerate`
hands to this module.

Steady state solves the global balance equations ``pi Q = 0``,
``sum(pi) = 1``, two ways:

* :meth:`CTMC.steady_state` is the **direct** factorisation: pin
  ``pi[anchor] = 1`` at a state of the chain's one closed class, delete
  that state's row and column from ``Q^T`` and solve the remaining
  nonsingular system by sparse LU (re-anchored once at ``argmax(pi)``
  when the first anchor carries negligible mass); a chain with several
  closed classes, a singular factor or a solution failing the residual
  and non-negativity checks raises :class:`SolverError`;
* :meth:`CTMC.steady_state_solve` is the **sweep** path: chains below
  ``_ITERATIVE_MIN_STATES`` states are solved directly; larger ones
  keep the same anchored system and run ILU-preconditioned GMRES,
  started from the previous point's :class:`SteadyStateWarmStart` when
  there is one -- built for sweeps over many nearby chains, where it
  converges in a handful of iterations.  Any convergence or residual
  failure falls back to the direct factorisation.

Both factorise the anchored system -- the exact LU and the ILU
preconditioner -- in SuperLU's symmetric mode with diagonal pivots
(``_FACTOR_OPTIONS``): the anchored ``Q^T`` is column diagonally
dominant, so no pivot search is needed.  A chain builds each anchored
system once, however many factorisations and Krylov solves use it.

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
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, SolverError

if TYPE_CHECKING:
    from scipy import sparse
    from scipy.sparse import linalg as sparse_linalg

__all__ = [
    "CTMC",
    "SteadyStateSolution",
    "SteadyStateWarmStart",
]

#: Below this size a sparse LU of the anchored system costs less than a
#: warm-started GMRES solve (measured crossover between the 2,672- and
#: 3,822-state design-grid chains: 19 ms against 16 ms, 31 ms against
#: 13 ms, median per solve on 2 vCPUs); warm starts are neither built
#: nor used.
_ITERATIVE_MIN_STATES = 3000

#: GMRES inner (Krylov) dimension per restart cycle, and the number of
#: restart cycles before the iterative path gives up and falls back.
_GMRES_RESTART = 60
_GMRES_MAX_RESTARTS = 8

#: Relative tolerance for the GMRES residual on the anchored system --
#: tight, so re-rated sweeps agree with the direct path to ~1e-12.
_GMRES_RTOL = 1e-12

#: Every solution must satisfy ``max |Q^T pi| <= _RESIDUAL_TOLERANCE *
#: max(1, max exit rate)`` and ``min(pi) >= -_NEGATIVE_MASS_TOLERANCE``.
_RESIDUAL_TOLERANCE = 1e-8
_NEGATIVE_MASS_TOLERANCE = 1e-8

#: When a warm-started solve needs more inner iterations than this, the
#: carried preconditioner has drifted too far from the current operating
#: point; the returned warm start is re-anchored at the new solution
#: without one, and the next solve factorises its own matrix there (a
#: sweep's last point builds no ILU for a point that never comes).  An
#: ILU refactorisation costs roughly 40-60 iterations' worth of
#: triangular solves at typical unfolded sizes, so the threshold sits
#: where a refresh pays for itself within a few sweep points.
_REFRESH_PRECONDITIONER_AFTER = 25

#: SuperLU settings for every factorisation of the anchored system, the
#: exact LU (:meth:`CTMC._anchored_lu`) and the ILU preconditioner
#: (:meth:`CTMC._ilu`).  Column ``j`` of ``Q^T`` holds ``-exit_j`` on
#: the diagonal and the rates out of state ``j`` off it, which sum to
#: ``exit_j``; deleting the anchor's row leaves at most that.  So the
#: anchored matrix is column diagonally dominant (a negated nonsingular
#: M-matrix), that dominance survives every Schur complement, and
#: elimination on the diagonal is stable under any symmetric
#: permutation: SuperLU's partial-pivoting search buys nothing.
#: Symmetric mode with diagonal pivots factorises the design-grid
#: chains up to 2.9x faster under COLAMD, with solutions agreeing to
#: 2e-17; MMD_AT_PLUS_A was no faster over whole passes (table in
#: docs/SAN_ENGINE.md).
_FACTOR_OPTIONS = {
    "permc_spec": "COLAMD",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}

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

#: ``(q_transpose, reduced, column, keep)`` of one anchor, as
#: :meth:`CTMC._anchored_system` builds it.
_AnchoredSystem = Tuple["sparse.csc_matrix", "sparse.csc_matrix", np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class SteadyStateWarmStart:
    """Warm-start state carried between steady-state solves.

    Returned by :meth:`CTMC.steady_state_solve` and fed back on the next
    (nearby) chain: the previous solution ``pi``, the ``anchor`` state
    (a high-probability state whose balance row/column is deleted from
    the solved system), and the ``preconditioner``, an incomplete-LU
    factorisation of a previous anchored matrix -- or ``None`` when it
    is due for a refresh, so the solve that uses this warm start
    factorises its own matrix at ``anchor``.
    """

    pi: np.ndarray
    anchor: int
    preconditioner: Optional[sparse_linalg.LinearOperator]


@dataclass
class SteadyStateSolution:
    """A steady-state solve plus how it was obtained.

    ``method`` is ``"direct"`` (the sparse LU of
    :meth:`CTMC.steady_state`) or ``"gmres"``; ``iterations`` counts
    GMRES inner iterations (0 for direct solves); ``fallback`` records
    why the warm start or the iterative solve was abandoned (``None``
    when it was not); ``warm_start`` is the state to feed into the next
    solve (``None`` below ``_ITERATIVE_MIN_STATES``).
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


def _state_indices(
    num_states: int, source: np.ndarray, target: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Transition endpoints as ``int64`` arrays; raises
    :class:`ModelError` for a non-integral endpoint or one outside
    ``range(num_states)``."""
    # The tuple constructor goes through a float table, so integral
    # floats are state indices too; anything else is refused rather
    # than truncated onto another transition.
    if source.dtype.kind not in "iu" or target.dtype.kind not in "iu":
        with np.errstate(invalid="ignore"):
            fractional = np.flatnonzero(
                (np.mod(source, 1) != 0) | (np.mod(target, 1) != 0)
            )
        if fractional.size:
            i = fractional[0]
            raise ModelError(
                f"transition {source[i]}->{target[i]} has a non-integral "
                "endpoint; states are integers"
            )
    source = source.astype(np.int64, copy=False)
    target = target.astype(np.int64, copy=False)
    outside = np.flatnonzero(
        (np.minimum(source, target) < 0)
        | (np.maximum(source, target) >= num_states)
    )
    if outside.size:
        i = outside[0]
        raise ModelError(
            f"transition {source[i]}->{target[i]} outside state range "
            f"0..{num_states - 1}"
        )
    return source, target


class CTMC:
    """A finite CTMC given by transitions ``(source, target, rate)``.

    Rates must be finite and non-negative and endpoints integers inside
    ``range(num_states)`` (:class:`ModelError` otherwise); zero-rate and
    self-loop transitions are dropped.
    """

    def __init__(
        self,
        num_states: int,
        transitions: Sequence[Tuple[int, int, float]],
        *,
        initial_distribution: Optional[Sequence[Tuple[float, int]]] = None,
    ):
        table = np.asarray(transitions, dtype=float).reshape(-1, 3)
        source, target, rates = table.T
        self._build(num_states, source, target, rates, initial_distribution)

    @classmethod
    def from_arrays(
        cls,
        num_states: int,
        source: np.ndarray,
        target: np.ndarray,
        rates: np.ndarray,
    ) -> "CTMC":
        """Build a CTMC from parallel transition arrays, validated as
        the tuple constructor validates them, starting in state 0."""
        chain = cls.__new__(cls)
        chain._build(num_states, source, target, rates, None)
        return chain

    def _build(
        self,
        num_states: int,
        source: np.ndarray,
        target: np.ndarray,
        rates: np.ndarray,
        initial_distribution: Optional[Sequence[Tuple[float, int]]],
    ) -> None:
        """The one vectorised validation and rate-matrix build behind
        both constructors."""
        if (
            isinstance(num_states, bool)
            or not isinstance(num_states, numbers.Real)
            or not float(num_states).is_integer()
        ):
            raise ModelError(
                f"CTMC num_states must be an integer, got {num_states!r}"
            )
        num_states = int(num_states)
        if num_states < 1:
            raise ModelError(f"CTMC needs at least one state, got {num_states}")
        source = np.asarray(source).ravel()
        target = np.asarray(target).ravel()
        rates = np.asarray(rates, dtype=float).ravel()
        if not (source.shape == target.shape == rates.shape):
            raise ModelError(
                f"transition arrays disagree in length: {source.shape}, "
                f"{target.shape}, {rates.shape}"
            )
        source, target = _state_indices(num_states, source, target)
        # NaN fails both comparisons, so it is caught with +-inf.
        invalid = np.flatnonzero(~(np.isfinite(rates) & (rates >= 0.0)))
        if invalid.size:
            i = invalid[0]
            raise ModelError(
                f"rate {rates[i]} on transition {source[i]}->{target[i]} "
                "must be finite and >= 0"
            )
        keep = (rates != 0.0) & (source != target)
        from scipy import sparse

        rate_matrix = sparse.coo_matrix(
            (rates[keep], (source[keep], target[keep])),
            shape=(num_states, num_states),
        ).tocsr()
        rate_matrix.sum_duplicates()
        self._adopt(rate_matrix, initial_distribution)

    @classmethod
    def _from_rate_matrix(
        cls,
        rate_matrix: sparse.csr_matrix,
        initial_distribution: Sequence[Tuple[float, int]],
    ) -> "CTMC":
        """A CTMC around a square canonical CSR ``rate_matrix`` whose
        entries the caller has validated: finite, positive, none on the
        diagonal (the re-rate hot path of
        :meth:`repro.san.assembled.AssembledChain.rerate`)."""
        chain = cls.__new__(cls)
        chain._adopt(rate_matrix, initial_distribution)
        return chain

    def _adopt(
        self,
        rate_matrix: sparse.csr_matrix,
        initial_distribution: Optional[Sequence[Tuple[float, int]]],
    ) -> None:
        self.num_states = int(rate_matrix.shape[0])
        self._rate_matrix = rate_matrix
        self._exit_rates = np.asarray(rate_matrix.sum(axis=1)).ravel()
        if initial_distribution is None:
            initial_distribution = [(1.0, 0)]
        self.initial_distribution = list(initial_distribution)
        # Anchored systems by anchor (see _anchored_system).
        self._anchored: Dict[int, _AnchoredSystem] = {}

    # ------------------------------------------------------------------
    # Matrices
    # ------------------------------------------------------------------
    @property
    def generator(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q`` (sparse CSR)."""
        from scipy import sparse

        diagonal = sparse.diags(-self._exit_rates)
        return (self._rate_matrix + diagonal).tocsr()

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
    def steady_state(self) -> np.ndarray:
        """Stationary distribution ``pi`` with ``pi Q = 0``, ``sum = 1``,
        by sparse LU of the anchored balance system.

        Raises :class:`SolverError` if the chain has several closed
        classes, the factor is singular, or the solution fails the
        residual / non-negativity / finiteness checks.
        """
        return self._direct_solve()[0]

    def steady_state_solve(
        self, warm_start: Optional[SteadyStateWarmStart] = None
    ) -> SteadyStateSolution:
        """Steady state for a sweep over nearby chains, with stats.

        Below ``_ITERATIVE_MIN_STATES`` states this is :meth:`steady_state`
        (``method="direct"``) and ``warm_start`` is ignored.  Above it
        runs anchored, ILU-preconditioned GMRES: from ``warm_start``
        when it fits the chain, otherwise cold, anchored at the
        heaviest initial state with a fresh ILU (an unfitting warm
        start is named in ``fallback``).  A warm start without a
        preconditioner gets an ILU of this chain's own system at its
        anchor.  Any :class:`SolverError` falls back to the direct
        factorisation, records the reason in ``fallback`` and returns a
        warm start re-anchored at ``argmax(pi)`` with no preconditioner.
        A solve on a carried ILU that needed more than
        ``_REFRESH_PRECONDITIONER_AFTER`` iterations returns the same,
        so the refactorisation happens in the next solve, at that
        solve's own matrix, and not at all after a sweep's last point.
        The returned ``warm_start`` is meant for the next solve.
        """
        n = self.num_states
        if n < _ITERATIVE_MIN_STATES:
            pi, residual = self._direct_solve()
            return SteadyStateSolution(pi=pi, method="direct", residual=residual)
        fallback: Optional[str] = None
        warm = (
            warm_start is not None
            and warm_start.pi.shape == (n,)
            and 0 <= warm_start.anchor < n
        )
        carried = warm and warm_start.preconditioner is not None
        if warm_start is not None and not warm:
            fallback = (
                f"warm start incompatible (chain has {n} states, warm start "
                f"has {warm_start.pi.size}); started cold"
            )
        try:
            if warm:
                anchor = warm_start.anchor
                mass = float(warm_start.pi[anchor])
                if mass < _MIN_ANCHOR_MASS:
                    raise SolverError(
                        f"warm-start anchor {anchor} carries negligible "
                        f"mass ({mass:.3e})"
                    )
                x0 = np.delete(warm_start.pi, anchor) / mass
                preconditioner = warm_start.preconditioner
                if preconditioner is None:
                    preconditioner = self._ilu(anchor)
            else:
                anchor = self._initial_anchor()
                x0 = None
                preconditioner = self._ilu(anchor)
            pi, residual, iterations = self._anchored_gmres(
                anchor, x0, preconditioner
            )
        except SolverError as exc:
            pi, residual = self._direct_solve()
            return SteadyStateSolution(
                pi=pi,
                method="direct",
                residual=residual,
                fallback=str(exc),
                warm_start=SteadyStateWarmStart(pi.copy(), int(np.argmax(pi)), None),
            )
        if carried and iterations > _REFRESH_PRECONDITIONER_AFTER:
            # The carried ILU has drifted: re-anchor here and leave the
            # refactorisation to the next solve.
            next_start = SteadyStateWarmStart(pi.copy(), int(np.argmax(pi)), None)
        else:
            next_start = SteadyStateWarmStart(pi.copy(), anchor, preconditioner)
        return SteadyStateSolution(
            pi=pi,
            method="gmres",
            iterations=iterations,
            residual=residual,
            warm_started=warm,
            fallback=fallback,
            warm_start=next_start,
        )

    def _direct_solve(self) -> Tuple[np.ndarray, float]:
        """The factorisation path: sparse LU of the anchored system.

        The anchor is the heaviest initial state when it lies in the
        chain's one closed class, else that class's first state, so the
        anchored matrix is nonsingular; if the anchor carries less than
        ``_MIN_ANCHOR_MASS`` of the solution, the system is re-anchored
        once at the largest entry, ``argmax(|pi|)`` -- or, when rounding
        made the first factor singular, at the other closed state with
        the smallest exit rate.  Returns ``(pi, residual)``.
        """
        if self.num_states == 1:
            return np.ones(1), 0.0
        anchor = self._initial_anchor()
        closed = self._closed_class()
        if not closed[anchor]:
            anchor = int(np.argmax(closed))
        # pi[anchor] = 1, so the anchor holds 1 / sum(pi) of the mass.  A
        # mass below double precision can swamp the solve in rounding: a
        # sum that is not even positive (anchor mass 5e-26 on a 16-state
        # chain), where the largest entry still marks the heaviest state,
        # or a factor that is exactly singular (6e-17 on a 14-state
        # chain), where the longest mean holding time among the other
        # closed states guesses it.
        try:
            pi, q_transpose = self._anchored_lu(anchor)
            total = float(pi.sum())
            heaviest = int(np.argmax(np.abs(pi)))
        except SolverError:
            total = math.nan
            others = closed & (np.arange(self.num_states) != anchor)
            heaviest = int(np.argmin(np.where(others, self._exit_rates, np.inf)))
        if not 0.0 < total * _MIN_ANCHOR_MASS <= 1.0:
            pi, q_transpose = self._anchored_lu(heaviest)
            total = float(pi.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise SolverError(
                f"direct steady state produced unnormalisable mass {total!r}"
            )
        pi /= total
        residual = self._check_solution(pi, q_transpose)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum(), residual

    def _initial_anchor(self) -> int:
        """The heaviest state of the initial distribution."""
        weights = np.zeros(self.num_states)
        for probability, state in self.initial_distribution:
            weights[state] += probability
        return int(np.argmax(weights))

    def _closed_class(self) -> np.ndarray:
        """Boolean mask of the chain's one closed communicating class;
        raises :class:`SolverError` unless there is exactly one (no
        unique stationary distribution otherwise)."""
        from scipy.sparse import csgraph

        count, labels = csgraph.connected_components(
            self._rate_matrix, directed=True, connection="strong"
        )
        edges = self._rate_matrix.tocoo()
        leaving = labels[edges.row][labels[edges.row] != labels[edges.col]]
        closed = np.setdiff1d(np.arange(count), leaving)
        if closed.size != 1:
            raise SolverError(
                f"chain has {closed.size} closed classes; the stationary "
                "distribution is not unique"
            )
        return labels == closed[0]

    def _anchored_lu(self, anchor: int) -> Tuple[np.ndarray, sparse.csc_matrix]:
        """Solve the system anchored at ``anchor`` by sparse LU; returns
        ``pi`` scaled to ``pi[anchor] = 1`` (unchecked) and ``Q^T``."""
        from scipy.sparse import linalg as sparse_linalg

        q_transpose, reduced, column, keep = self._anchored_system(anchor)
        try:
            x = sparse_linalg.splu(reduced, **_FACTOR_OPTIONS).solve(-column)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SolverError(f"steady-state system is singular: {exc}") from exc
        pi = np.empty(self.num_states)
        pi[keep] = x
        pi[anchor] = 1.0
        return pi, q_transpose

    def _check_solution(
        self, pi: np.ndarray, q_transpose: sparse.csc_matrix
    ) -> float:
        """Shared finite / residual / negativity checks; returns the
        residual."""
        if np.any(~np.isfinite(pi)):
            raise SolverError("steady-state solution contains non-finite entries")
        residual = float(np.abs(q_transpose @ pi).max())
        scale = max(1.0, float(self._exit_rates.max(initial=1.0)))
        if residual > _RESIDUAL_TOLERANCE * scale:
            raise SolverError(
                f"steady-state residual {residual:.3e} exceeds tolerance; "
                "the chain may not have a unique stationary distribution"
            )
        if pi.min() < -_NEGATIVE_MASS_TOLERANCE:
            raise SolverError(
                f"steady-state solution has negative mass ({pi.min():.3e}); "
                "the chain may be reducible"
            )
        return residual

    def _anchored_system(self, anchor: int) -> _AnchoredSystem:
        """Delete the anchor row/column of ``Q^T``; with ``pi[anchor]``
        pinned to 1, the stationary equations become the nonsingular
        system ``A x = -c`` over the remaining states.  Returns ``(Q^T,
        A, c, keep)``, both matrices CSC (what SuperLU factorises), built
        once per anchor: the cold ILU, GMRES and a direct fallback of
        one solve share it."""
        system = self._anchored.get(anchor)
        if system is None:
            generator = self.generator
            keep = np.flatnonzero(np.arange(self.num_states) != anchor)
            # Q's CSR arrays are Q^T's CSC arrays, so the transposes are
            # free.
            reduced = generator[keep][:, keep].transpose()
            column = generator[anchor].toarray().ravel()[keep]
            system = (generator.transpose(), reduced, column, keep)
            self._anchored[anchor] = system
        return system

    def _ilu(self, anchor: int) -> sparse_linalg.LinearOperator:
        """Incomplete-LU preconditioner of the system anchored at
        ``anchor``; raises :class:`SolverError` if it cannot be
        factorised."""
        from scipy.sparse import linalg as sparse_linalg

        _, reduced, _, _ = self._anchored_system(anchor)
        try:
            ilu = sparse_linalg.spilu(
                reduced,
                drop_tol=_ILU_DROP_TOL,
                fill_factor=_ILU_FILL_FACTOR,
                **_FACTOR_OPTIONS,
            )
        except Exception as exc:
            raise SolverError(f"ILU factorisation failed: {exc}") from exc
        n = self.num_states
        return sparse_linalg.LinearOperator(
            shape=(n - 1, n - 1), matvec=ilu.solve
        )

    def _anchored_gmres(
        self,
        anchor: int,
        x0: Optional[np.ndarray],
        preconditioner: sparse_linalg.LinearOperator,
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
            rtol=_GMRES_RTOL,
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
        residual = self._check_solution(pi, q_transpose)
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        return pi, residual, iterations

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
        # Row vector times P is P^T times a column vector; transposing
        # once here spares scipy a transpose at every Poisson term.
        dtmc_transpose = dtmc.transpose().tocsr()

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
                term = dtmc_transpose @ term
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

