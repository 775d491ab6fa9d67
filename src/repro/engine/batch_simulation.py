"""The compiled batch-execution engine.

:class:`BatchSimulation` runs a *compiled* protocol (see
:mod:`repro.engine.compiled`) over the exact same stochastic process as
:class:`~repro.engine.simulation.Simulation` -- a uniformly random ordered
pair of distinct agents per interaction -- but applies whole scheduler batches
with NumPy fancy indexing instead of one Python call per interaction.

Exact batching
--------------
Interactions are sequential: pair ``t`` must observe the states left behind by
pairs ``< t``.  Naively a vectorized batch is therefore limited to a prefix in
which no agent appears twice (the birthday bound, ~``sqrt(n)`` pairs).  The
engine exploits a stronger invariant: only interactions whose table entry can
*change* a state ("active" interactions, per the compiled ``changes`` mask)
impose ordering.  Within a drawn window of pairs the engine finds ``t_end``,
the first pair that touches an agent already involved in an *earlier active*
pair, vectorized via scatter/gather into per-agent epoch buffers:

* pairs ``[0, t_end)`` are applied in one shot (their inputs provably equal
  the window-start states, and the active pairs among them are pairwise
  disjoint),
* pair ``t_end`` is applied individually against the updated states,
* the rest of the window is discarded (the drawn pairs are i.i.d. and unused,
  so discarding them does not bias the process; ``t_end`` is a stopping time,
  so the applied sequence is exactly i.i.d. uniform pairs).

When activity is sparse -- the long tails of most protocols -- windows run to
tens of thousands of interactions per NumPy call; when activity is dense the
window adapts down toward the birthday bound.  The window size tracks an
exponential moving average of recent segment lengths.

The engine matches the loop engine's interaction *distribution*, not its
random stream: the two engines consume the shared generator differently, so
equivalence is statistical (same convergence-time law), not bitwise.
"""

from __future__ import annotations

import base64
import binascii
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.engine.compiled import CompiledProtocol, ProtocolCompiler, compile_or_reuse
from repro.engine.configuration import Configuration
from repro.engine.driver import Engine, check_loop, run_plan
from repro.engine.protocol import PopulationProtocol
from repro.engine.results import SimulationResult
from repro.engine.rng import RngLike, make_rng
from repro.engine.run_config import RunConfig
from repro.engine.scheduler import PairScheduler, UniformPairScheduler
from repro.telemetry import metrics as _metrics


def _last_write_wins() -> bool:
    """Probe NumPy's fancy-assignment semantics for repeated indices.

    The conflict scans write occurrence positions in reverse so the *first*
    occurrence survives, which requires assignment to keep the last write for
    a repeated index.  Current NumPy does; if that ever changes we fall back
    to the slower ``np.minimum.at``.
    """
    probe = np.zeros(2, dtype=np.int64)
    probe[np.array([0, 0])] = np.array([1, 2])
    return bool(probe[0] == 2)


_LAST_WRITE_WINS = _last_write_wins()


def _scatter_first(
    buffer: np.ndarray, agents: np.ndarray, positions: np.ndarray, sentinel: int
) -> None:
    """Leave each agent's *first* (minimum) position in ``buffer[agent]``.

    Entries of ``buffer`` not named by ``agents`` are left untouched, so
    callers either gather only written entries or pair the buffer with an
    epoch tag.
    """
    if _LAST_WRITE_WINS:
        buffer[agents[::-1]] = positions[::-1]
    else:
        buffer[agents] = sentinel
        np.minimum.at(buffer, agents, positions)


class BatchSimulation(Engine):
    """Runs one execution of a compiled population protocol.

    Mirrors the :class:`~repro.engine.simulation.Simulation` API (``step``,
    ``run``, ``run_until_*``) but holds the configuration as an ``int32``
    state-index array and applies scheduler batches vectorized.  Interaction
    hooks are not supported -- per-interaction callbacks would defeat
    batching; use the loop engine for instrumented runs.

    Parameters
    ----------
    protocol:
        The protocol to run.  Must be compilable (see
        :class:`~repro.engine.compiled.ProtocolCompiler`) unless ``compiled``
        is supplied.
    configuration:
        Optional starting configuration (encoded on construction).
    indices:
        Optional starting state-index array (length ``n``), the fast way to
        seed million-agent runs without building ``n`` Python state objects.
        Mutually exclusive with ``configuration``.
    compiled:
        Reuse an existing :class:`CompiledProtocol` (e.g. across trials).
        Must come from a protocol of the same type, population size, and
        enumerated state space (checked).  Parameters that change transition
        *outcomes* without changing the state list -- e.g. a branch
        probability -- are not detectable; callers reusing tables must keep
        such parameters identical.
    compiler:
        Compiler to use when ``compiled`` is not given.
    max_window:
        Upper bound on the number of pairs drawn per vectorized window.
    """

    ENGINE = "compiled"

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Optional[Configuration] = None,
        indices: Optional[np.ndarray] = None,
        rng: RngLike = None,
        compiled: Optional[CompiledProtocol] = None,
        compiler: Optional[ProtocolCompiler] = None,
        max_window: int = 1 << 16,
        scheduler: Optional[PairScheduler] = None,
    ):
        if configuration is not None and indices is not None:
            raise ValueError("pass either configuration or indices, not both")
        if max_window < 4:
            raise ValueError(f"max_window must be at least 4, got {max_window}")
        self.protocol = protocol
        self.rng = make_rng(rng)
        self.compiled = compiled = compile_or_reuse(protocol, compiled, compiler)

        n = protocol.n
        if indices is not None:
            indices = np.asarray(indices)
            if indices.shape != (n,):
                raise ValueError(f"indices must have shape ({n},), got {indices.shape}")
            if len(indices) and (
                int(indices.min()) < 0 or int(indices.max()) >= compiled.num_states
            ):
                raise ValueError("state indices out of range for the compiled state space")
            self._indices = indices.astype(np.int32, copy=True)
        else:
            if configuration is None:
                configuration = protocol.initial_configuration(self.rng)
            if len(configuration) != n:
                raise ValueError(
                    f"configuration has {len(configuration)} agents but protocol "
                    f"expects {n}"
                )
            self._indices = compiled.encode_configuration(configuration)

        if scheduler is not None and scheduler.n != n:
            raise ValueError(
                f"scheduler is for population size {scheduler.n}, protocol has {n}"
            )
        self.scheduler: PairScheduler = (
            scheduler if scheduler is not None else UniformPairScheduler(n, rng=self.rng)
        )
        self.interactions = 0
        self._max_window = int(max_window)
        self._window_ema = 512.0
        self._active_fraction = 1.0
        # Per-agent scratch used by the conflict scans: the window position of
        # the agent's first (active) occurrence, valid only when the epoch tag
        # matches the current scan epoch (avoids clearing O(n) per window).
        self._first_active = np.zeros(n, dtype=np.int64)
        self._active_epoch = np.zeros(n, dtype=np.int64)
        self._epoch = 0
        self._pair_positions = np.arange(self._max_window, dtype=np.int64)
        self._slot_positions = np.arange(2 * self._max_window, dtype=np.int64) >> 1
        self._counts: Optional[np.ndarray] = None

    # -- views ----------------------------------------------------------------------

    @property
    def indices(self) -> np.ndarray:
        """The state-index array (live view; treat as read-only)."""
        return self._indices

    @property
    def state_counts(self) -> np.ndarray:
        """Histogram of state indices (length ``S``), recomputed lazily."""
        if self._counts is None:
            self._counts = self.compiled.state_counts(self._indices)
        return self._counts

    @property
    def configuration(self) -> Configuration:
        """Decode the current configuration (builds ``n`` state objects)."""
        return self.compiled.decode_configuration(self._indices)

    # -- stepping --------------------------------------------------------------------

    def step(self) -> None:
        """Execute a single interaction (scalar path; for parity and tests)."""
        initiator, responder = self.scheduler.next_pair()
        self._apply_scalar(initiator, responder)
        self.interactions += 1

    def run(self, num_interactions) -> Optional[SimulationResult]:
        """Execute a :class:`RunConfig` plan, or exactly ``n`` interactions, batched.

        Passing a :class:`~repro.engine.run_config.RunConfig` runs until the
        configured stop condition (or cap) and returns the
        :class:`SimulationResult` -- the same polymorphic entry point as
        :class:`~repro.engine.simulation.Simulation`, so harness code is
        engine-agnostic.  Passing an integer executes exactly that many
        interactions (returns ``None``).

        Each drawn window is consumed by one of two exact paths, selected by
        the recent fraction of active (state-changing) interactions:

        * *dense* -- most interactions change states, so ordering conflicts
          are everywhere; truncate segments at the first repeated agent (the
          birthday bound) with a cheap scatter/gather scan and chain segments
          through the window.
        * *sparse* -- most interactions are null; only agents of *active*
          pairs impose ordering, so segments run orders of magnitude past the
          birthday bound.
        """
        if isinstance(num_interactions, RunConfig):
            return run_plan(self, num_interactions)
        if num_interactions < 0:
            raise ValueError(
                f"num_interactions must be non-negative, got {num_interactions}"
            )
        remaining = num_interactions
        profile = _metrics._PROFILING
        while remaining > 0:
            dense = self._active_fraction > 0.125
            # Dense windows are chained through completely, so a large window
            # amortizes the draw; sparse windows discard their tail after the
            # first conflict, so stay close to the expected segment length.
            scale = 6.0 if dense else 1.5
            window = int(
                min(max(64.0, scale * self._window_ema), self._max_window, remaining)
            )
            # Sparse windows discard drawn-but-unapplied tails, so
            # time-inhomogeneous schedulers (epoch partition) re-align their
            # phase clock with the applied count before every draw.
            self.scheduler.sync(self.interactions)
            marker = time.perf_counter() if profile else 0.0
            initiators, responders = self.scheduler.pair_batch(window)
            if profile:
                now = time.perf_counter()
                _metrics.record_stage_seconds("compiled", "scheduler_draw", now - marker)
                marker = now
            if dense:
                applied = self._consume_dense(initiators, responders, window)
            else:
                applied = self._consume_sparse(initiators, responders, window)
            if profile:
                _metrics.record_stage_seconds(
                    "compiled", "table_apply", time.perf_counter() - marker
                )
            if _metrics._ENABLED:
                _metrics.record_window("compiled", applied)
            self.interactions += applied
            remaining -= applied
        return None

    def _install_scheduler(self, spec) -> None:
        self.scheduler = spec.build(self.protocol.n, rng=self.rng)

    def _install_byzantine(self, spec):
        """Swap in the extended table and re-tag the selected agents.

        Must happen before any interaction: the per-state marking is drawn
        from the *initial* histogram (and its side-stream generator never
        touches the trial stream), then the selected agents' indices shift
        into the adversarial tag block while honest agents keep their base
        indices (tag 0 is the identity).  The execution machinery is
        table-agnostic, so nothing else changes.
        """
        from repro.adversary.byzantine import (
            build_byzantine_overlay,
            byzantine_selection_rng,
        )

        overlay = build_byzantine_overlay(self.protocol, self.compiled, spec)
        marked = overlay.draw_marking(
            byzantine_selection_rng(self.rng), self.compiled.state_counts(self._indices)
        )
        self._indices = overlay.mark_indices(self._indices, marked)
        self.compiled = overlay.compiled
        self._counts = None
        return overlay

    def _consume_dense(
        self, initiators: np.ndarray, responders: np.ndarray, window: int
    ) -> int:
        """Consume the whole window by chaining agent-disjoint segments.

        Each scan finds the first slot whose agent already appeared in the
        current segment (scatter positions reversed so the first occurrence
        wins, then compare the gather with each slot's own position), applies
        the duplicate-free prefix in one shot, and restarts the scan at the
        conflicting pair -- whose inputs are fresh once the prefix landed, so
        nothing is discarded and every drawn pair is applied in order.
        """
        slots = np.empty(2 * window, dtype=np.int64)
        slots[0::2] = initiators
        slots[1::2] = responders
        indices = self._indices
        compiled = self.compiled
        num_states = compiled.num_states
        changes = compiled.changes
        buffer = self._first_active
        start = 0
        while start < window:
            rest = slots[2 * start :]
            positions = self._slot_positions[: len(rest)]
            _scatter_first(buffer, rest, positions, sentinel=window)
            duplicate = buffer[rest] != positions
            first = int(duplicate.argmax())
            # The first pair of a segment can never be flagged (its agents'
            # first occurrences are itself), so the segment always advances.
            segment = (first >> 1) if duplicate[first] else window - start
            end = start + segment

            # Apply the agent-disjoint prefix in one shot.
            gathered = indices[rest[: 2 * segment]]
            rows = gathered[0::2] * num_states
            rows += gathered[1::2]
            mask = changes[rows]
            changed = int(np.count_nonzero(mask))
            if changed:
                if changed > segment >> 1:
                    # Most pairs change: apply everything unfiltered (null
                    # entries rewrite their own states, which is harmless on
                    # a duplicate-free segment).
                    self._apply_packed(rest[: 2 * segment], rows)
                else:
                    active = np.nonzero(mask)[0]
                    targets = rest[: 2 * segment].reshape(-1, 2)[active].ravel()
                    self._apply_packed(targets, rows[active])
            self._active_fraction += 0.1 * (changed / segment - self._active_fraction)
            self._window_ema += 0.25 * (segment - self._window_ema)
            start = end
        return window

    def _consume_sparse(
        self, initiators: np.ndarray, responders: np.ndarray, window: int
    ) -> int:
        """Consume a window bounded only by conflicts with *active* pairs."""
        indices = self._indices
        rows = indices[initiators] * self.compiled.num_states
        rows += indices[responders]
        active = self.compiled.changes[rows]
        active_pairs = np.nonzero(active)[0]

        if len(active_pairs) == 0:
            # Every drawn pair is null: the whole window commutes.
            self._active_fraction *= 0.9
            self._window_ema += 0.25 * (window - self._window_ema)
            return window

        t_end = self._first_conflict(initiators, responders, active_pairs, window)
        segment = active_pairs[active_pairs < t_end]
        if len(segment):
            self._apply_batch(initiators[segment], responders[segment], rows[segment])
        applied = t_end
        if t_end < window:
            # The conflicting pair itself: apply against the fresh states.
            self._apply_scalar(int(initiators[t_end]), int(responders[t_end]))
            applied += 1
        self._active_fraction += 0.1 * (
            len(segment) / max(t_end, 1) - self._active_fraction
        )
        self._window_ema += 0.25 * (t_end - self._window_ema)
        return applied

    def _first_conflict(
        self,
        initiators: np.ndarray,
        responders: np.ndarray,
        active_pairs: np.ndarray,
        window: int,
    ) -> int:
        """Position of the first pair touching an agent of an earlier active pair.

        Scatters each active agent's first active-pair position into the
        epoch-tagged per-agent buffers (reversed write order, so the first
        occurrence wins), then gathers per pair and compares with the pair's
        own position.  Returns ``window`` when the whole window is exact.
        """
        self._epoch += 1
        first_active = self._first_active
        active_epoch = self._active_epoch
        # Interleave the two agents of each active pair in pair order so a
        # single reversed scatter leaves each agent's *first* active position.
        count = len(active_pairs)
        agents = np.empty(2 * count, dtype=np.int64)
        agents[0::2] = initiators[active_pairs]
        agents[1::2] = responders[active_pairs]
        pair_of_slot = np.empty(2 * count, dtype=np.int64)
        pair_of_slot[0::2] = active_pairs
        pair_of_slot[1::2] = active_pairs
        _scatter_first(first_active, agents, pair_of_slot, sentinel=window)
        active_epoch[agents] = self._epoch

        positions = self._pair_positions[:window]
        first_i = np.where(
            active_epoch[initiators] == self._epoch, first_active[initiators], window
        )
        first_j = np.where(
            active_epoch[responders] == self._epoch, first_active[responders], window
        )
        conflicts = np.minimum(first_i, first_j) < positions
        if conflicts.any():
            return int(np.argmax(conflicts))
        return window

    def _packed_results(self, rows: np.ndarray) -> np.ndarray:
        """Packed (initiator', responder') outcomes for the given entries,
        sampling among randomized branches when the protocol has any."""
        compiled = self.compiled
        if compiled.branch_cumprob is None:
            return compiled.packed_result[rows]
        uniforms = self.rng.random(len(rows))
        cumulative = compiled.branch_cumprob[rows]
        branch = (uniforms[:, None] >= cumulative).sum(axis=1)
        np.minimum(branch, compiled.max_branches - 1, out=branch)
        return compiled.packed_result[rows, branch]

    def _apply_packed(self, targets: np.ndarray, rows: np.ndarray) -> None:
        """Scatter packed outcomes onto interleaved (initiator, responder) slots.

        ``targets`` holds the two agents of each pair adjacently, matching the
        ``int32`` memory layout of the packed results, so both agents of every
        interaction update with a single gather and a single scatter.  The
        pairs must be pairwise agent-disjoint.
        """
        self._indices[targets] = self._packed_results(rows).view(np.int32)
        self._counts = None

    def _apply_batch(
        self, initiators: np.ndarray, responders: np.ndarray, rows: np.ndarray
    ) -> None:
        """Apply a set of pairwise-disjoint active interactions in one shot."""
        targets = np.empty(2 * len(rows), dtype=np.int64)
        targets[0::2] = initiators
        targets[1::2] = responders
        self._apply_packed(targets, rows)

    def apply_fault(self, agent_ids: np.ndarray, state_indices: np.ndarray) -> None:
        """Overwrite the states of ``agent_ids`` with ``state_indices``.

        The fault path of :class:`~repro.adversary.campaign.FaultCampaign`:
        replacement states arrive already encoded, are scattered straight
        into the index array, and the cached state-count vector is updated
        incrementally from the old/new index histograms -- ``O(burst size)``
        work, never an ``O(n)`` decode, so million-agent campaigns stay
        cheap.  ``agent_ids`` must be duplicate-free (a duplicate would make
        the incremental count update wrong, so it is rejected).
        """
        agent_ids = np.asarray(agent_ids, dtype=np.int64)
        state_indices = np.asarray(state_indices, dtype=np.int32)
        if agent_ids.shape != state_indices.shape or agent_ids.ndim != 1:
            raise ValueError("agent_ids and state_indices must be 1-D and equal length")
        if len(agent_ids) == 0:
            return
        n = self.protocol.n
        if int(agent_ids.min()) < 0 or int(agent_ids.max()) >= n:
            raise ValueError(f"agent_ids out of range for population size {n}")
        if len(np.unique(agent_ids)) != len(agent_ids):
            raise ValueError("agent_ids contains duplicates")
        num_states = self.compiled.num_states
        if int(state_indices.min()) < 0 or int(state_indices.max()) >= num_states:
            raise ValueError("state indices out of range for the compiled state space")
        if self._counts is not None:
            self._counts -= np.bincount(self._indices[agent_ids], minlength=num_states)
            self._counts += np.bincount(state_indices, minlength=num_states)
        self._indices[agent_ids] = state_indices

    def _apply_scalar(self, initiator: int, responder: int) -> None:
        """Apply one interaction to the index array (reads current states)."""
        compiled = self.compiled
        state_i = int(self._indices[initiator])
        state_j = int(self._indices[responder])
        row = state_i * compiled.num_states + state_j
        if not compiled.changes[row]:
            return
        if compiled.branch_cumprob is None:
            new_i = compiled.result_initiator[row]
            new_j = compiled.result_responder[row]
        else:
            uniform = self.rng.random()
            branch = int(np.searchsorted(compiled.branch_cumprob[row], uniform, side="right"))
            branch = min(branch, compiled.max_branches - 1)
            new_i = compiled.result_initiator[row, branch]
            new_j = compiled.result_responder[row, branch]
        self._indices[initiator] = new_i
        self._indices[responder] = new_j
        self._counts = None

    # -- checkpointing -----------------------------------------------------------------

    @staticmethod
    def encode_state_vector(indices: np.ndarray) -> Dict:
        """The per-agent state vector as compact JSON (base64 of int32 LE).

        A million-agent vector serialized as a JSON list of ints costs tens
        of milliseconds per checkpoint -- more than the interaction window
        between checkpoints; as one base64 string it is a memcpy.
        """
        data = np.ascontiguousarray(indices, dtype="<i4").tobytes()
        return {
            "encoding": "base64/int32-le",
            "n": int(indices.size),
            "data": base64.b64encode(data).decode("ascii"),
        }

    @staticmethod
    def decode_state_vector(payload) -> np.ndarray:
        """Inverse of :meth:`encode_state_vector`; plain lists also accepted."""
        if isinstance(payload, (list, tuple)):
            return np.asarray(payload, dtype=np.int32)
        if not isinstance(payload, dict) or payload.get("encoding") != "base64/int32-le":
            raise ValueError(
                "state vector must be a list or a base64/int32-le object, "
                f"got {type(payload).__name__}"
            )
        try:
            data = base64.b64decode(payload["data"], validate=True)
        except (KeyError, TypeError, binascii.Error) as error:
            raise ValueError(f"undecodable state vector: {error}") from None
        indices = np.frombuffer(data, dtype="<i4").astype(np.int32)
        if indices.size != int(payload.get("n", -1)):
            raise ValueError(
                f"state vector length {indices.size} != declared n {payload.get('n')}"
            )
        return indices

    def _checkpoint_guard(self) -> None:
        """Reject state captures the engine cannot resume bit-identically."""
        if self._byzantine is not None:
            raise RuntimeError(
                "byzantine runs are not checkpointable: the overlay re-tags "
                "agents per run, outside the captured state"
            )
        if (
            type(self.scheduler) is not UniformPairScheduler
            or self.scheduler.rng is not self.rng
        ):
            raise RuntimeError(
                "only runs on the engine's shared uniform scheduler are "
                "checkpointable: a custom scheduler carries position outside "
                "the generator state"
            )
        if self.scheduler._cursor < len(self.scheduler._initiators):
            raise RuntimeError(
                "the scheduler holds drawn-but-unconsumed pairs (step() was "
                "used); checkpoint only at run_until check boundaries"
            )

    def checkpoint_state(self) -> Dict:
        """JSON-able snapshot from which :meth:`restore_checkpoint_state`
        resumes **bit-identically**.

        Captures everything that shapes the remaining random stream: the
        state-index array, the interaction counter, the window-sizing EMAs
        (they determine how many pairs the next window draws), and the PCG64
        bit-generator state.  The epoch-tag scratch buffers are *not*
        captured: every conflict scan tags before it reads, so their contents
        never influence an outcome (restore resets them).  Consumes no
        randomness, so capturing mid-run leaves the run unperturbed.
        """
        self._checkpoint_guard()
        return {
            "engine": "compiled",
            "interactions": int(self.interactions),
            "indices": self.encode_state_vector(self._indices),
            "window_ema": float(self._window_ema),
            "active_fraction": float(self._active_fraction),
            "max_window": int(self._max_window),
            "bit_generator": self.rng.bit_generator.state,
        }

    def restore_checkpoint_state(self, payload: Dict) -> None:
        """Inverse of :meth:`checkpoint_state` (validates shape and ranges)."""
        if payload.get("engine") != "compiled":
            raise ValueError(
                f"checkpoint was captured by engine {payload.get('engine')!r}, "
                "not 'compiled'"
            )
        self._checkpoint_guard()
        indices = self.decode_state_vector(payload["indices"])
        n = self.protocol.n
        if indices.shape != (n,):
            raise ValueError(
                f"checkpoint indices must have shape ({n},), got {indices.shape}"
            )
        if len(indices) and (
            int(indices.min()) < 0 or int(indices.max()) >= self.compiled.num_states
        ):
            raise ValueError("checkpoint state indices out of range for the compiled table")
        generator_state = dict(payload["bit_generator"])
        expected = type(self.rng.bit_generator).__name__
        if generator_state.get("bit_generator") != expected:
            raise ValueError(
                f"checkpoint holds {generator_state.get('bit_generator')!r} "
                f"generator state, engine uses {expected!r}"
            )
        self._indices = indices.astype(np.int32, copy=True)
        self.interactions = int(payload["interactions"])
        self._window_ema = float(payload["window_ema"])
        self._active_fraction = float(payload["active_fraction"])
        if int(payload["max_window"]) != self._max_window:
            self._max_window = int(payload["max_window"])
            self._pair_positions = np.arange(self._max_window, dtype=np.int64)
            self._slot_positions = np.arange(2 * self._max_window, dtype=np.int64) >> 1
        self.rng.bit_generator.state = generator_state
        self._counts = None
        self._epoch = 0
        self._first_active.fill(0)
        self._active_epoch.fill(0)

    # -- running until a condition ---------------------------------------------------

    def run_until(
        self,
        predicate: Optional[Callable[[Configuration], bool]] = None,
        max_interactions: Optional[int] = None,
        check_interval: Optional[int] = None,
        reason: str = "predicate",
        counts_predicate: Optional[Callable[[np.ndarray], bool]] = None,
    ) -> SimulationResult:
        """Run until a stopping condition holds or the cap is reached.

        Exactly one of ``predicate`` (evaluated on a *decoded*
        :class:`Configuration` -- the slow path, fine for small ``n``) or
        ``counts_predicate`` (evaluated on the ``S``-length state-count
        vector -- the fast path) must be given; see
        :func:`~repro.engine.driver.check_loop` for the check cadence.
        """
        return check_loop(
            self, predicate, counts_predicate, max_interactions, check_interval, reason
        )


__all__ = ["BatchSimulation"]
