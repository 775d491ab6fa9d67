"""Table-driven compilation of population protocols.

The per-interaction loop in :mod:`repro.engine.simulation` pays a Python
function call, attribute accesses, and object mutation for every interaction,
which caps practical populations around ``n ~ 10^4``.  Protocols with a small
*state space*, however, admit a much faster representation: integer-encode the
reachable states ``0 .. S-1`` and replace the transition function with a dense
``(S, S) -> (S', S')`` lookup table.  Whole scheduler batches can then be
applied with NumPy fancy indexing (see
:class:`~repro.engine.batch_simulation.BatchSimulation`), reaching populations
of a million agents and beyond.

:class:`ProtocolCompiler` performs the encoding:

1. It asks the protocol for seed states via
   :meth:`~repro.engine.protocol.PopulationProtocol.enumerate_states`.
2. It closes the set under the transition function (breadth-first), assigning
   each distinct state signature an integer index.
3. For every ordered state pair it derives the transition's outcome -- either
   by probing ``transition()`` with several fixed-seed generators (and
   verifying the outcomes agree, i.e. the transition is deterministic), or,
   for randomized protocols, from the explicit branch list returned by
   :meth:`~repro.engine.protocol.PopulationProtocol.transition_branches`.

The result is a :class:`CompiledProtocol`: dense ``int32`` result tables for
the initiator and responder, a per-entry *branch-probability channel*
(cumulative probabilities, used to sample among randomized branches), and a
``changes`` mask marking the entries that can alter at least one of the two
states.  The mask is what makes million-agent batches fast: interactions whose
entry cannot change anything ("null" interactions) commute with everything and
can be skipped wholesale.

See ``docs/ARCHITECTURE.md`` for when to pick the compiled engine over the
per-interaction loop.
"""

from __future__ import annotations

import itertools
import sys
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import make_rng
from repro.engine.state import AgentState


class CompilationError(RuntimeError):
    """Raised when a protocol cannot be compiled to a transition table."""


def probe_deterministic_branch(
    protocol: PopulationProtocol,
    initiator: AgentState,
    responder: AgentState,
    probe_seeds: Sequence[int] = (11, 17),
) -> List[Tuple[float, AgentState, AgentState]]:
    """Derive a deterministic transition's single branch by probing.

    Applies ``transition()`` to clones with one fixed-seed generator per probe
    seed and insists the outcomes agree; differing outcomes mean the
    transition consumes randomness without declaring ``transition_branches()``,
    which raises :class:`CompilationError`.  Shared by the compiler's generic
    path and by product protocols deriving their factors' branches.
    """
    outcomes = []
    for seed in probe_seeds:
        probe_initiator = initiator.clone()
        probe_responder = responder.clone()
        protocol.transition(probe_initiator, probe_responder, make_rng(seed))
        outcomes.append((probe_initiator, probe_responder))
    signatures = {
        (protocol.state_signature(a), protocol.state_signature(b)) for a, b in outcomes
    }
    if len(signatures) > 1:
        raise CompilationError(
            f"{protocol.name}: transition() is randomized (probe outcomes differ "
            f"for pair {initiator!r}, {responder!r}); implement "
            "transition_branches() to expose the branch probabilities"
        )
    return [(1.0, outcomes[0][0], outcomes[0][1])]


class CompiledProtocol:
    """A protocol whose dynamics have been lowered to dense NumPy tables.

    Attributes
    ----------
    protocol:
        The source protocol (used for population size, decoding, and the
        slow-path predicates).
    states:
        List of exemplar :class:`AgentState` objects; index ``k`` in any
        encoded array refers to a state equal to ``states[k]``.  Treat the
        exemplars as immutable -- :meth:`decode_configuration` clones them.
    result_initiator / result_responder:
        ``int32`` arrays of shape ``(S * S,)`` (deterministic protocols) or
        ``(S * S, B)`` (randomized, ``B`` = maximum branch count).  Entry
        ``a * S + b`` holds the post-interaction state indices for the ordered
        pair ``(a, b)``.
    branch_cumprob:
        ``None`` for deterministic protocols; otherwise a ``(S * S, B)``
        float array of *cumulative* branch probabilities.  Branch ``k`` is
        selected for uniform ``u`` when ``cumprob[k-1] <= u < cumprob[k]``.
    changes:
        Boolean ``(S * S,)`` mask: ``True`` iff some branch of the entry
        changes at least one of the two states.
    packed_result:
        The two result channels fused into one ``int64`` per entry so the
        batch engine can update both agents of an interaction with a single
        gather and a single scatter: viewing the packed array as ``int32``
        yields ``[initiator', responder', ...]`` interleaved in memory (the
        shift order accounts for byte order).
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        states: Sequence[AgentState],
        result_initiator: np.ndarray,
        result_responder: np.ndarray,
        branch_cumprob: Optional[np.ndarray],
        changes: np.ndarray,
        factor_tables: Optional[Sequence["CompiledProtocol"]] = None,
    ):
        #: Component tables when this table was built by the product
        #: construction (see :meth:`ProtocolCompiler.compile` and the
        #: ``compiled_factors`` protocol hook); ``None`` otherwise.
        self.factor_tables = list(factor_tables) if factor_tables is not None else None
        self.protocol = protocol
        self.states: List[AgentState] = list(states)
        self._index: Dict[Hashable, int] = {
            protocol.state_signature(state): k for k, state in enumerate(self.states)
        }
        self.result_initiator = result_initiator
        self.result_responder = result_responder
        self.branch_cumprob = branch_cumprob
        self.changes = changes
        low, high = (
            (result_initiator, result_responder)
            if sys.byteorder == "little"
            else (result_responder, result_initiator)
        )
        self.packed_result = low.astype(np.int64) | (high.astype(np.int64) << 32)

    # -- basic properties ----------------------------------------------------------

    @property
    def num_states(self) -> int:
        """Size ``S`` of the encoded state space."""
        return len(self.states)

    @property
    def deterministic(self) -> bool:
        """``True`` iff every table entry has a single branch."""
        return self.branch_cumprob is None

    @property
    def max_branches(self) -> int:
        """Maximum number of randomized branches of any entry (1 if deterministic)."""
        if self.branch_cumprob is None:
            return 1
        return self.branch_cumprob.shape[1]

    # -- encoding / decoding --------------------------------------------------------

    def encode_state(self, state: AgentState) -> int:
        """Return the integer index of ``state``."""
        signature = self.protocol.state_signature(state)
        try:
            return self._index[signature]
        except KeyError:
            raise CompilationError(
                f"state {state!r} is outside the compiled state space "
                f"of {self.protocol.name}"
            ) from None

    def encode_configuration(self, configuration: Configuration) -> np.ndarray:
        """Encode a configuration as an ``int32`` array of state indices."""
        if len(configuration) != self.protocol.n:
            raise ValueError(
                f"configuration has {len(configuration)} agents but protocol "
                f"expects {self.protocol.n}"
            )
        return np.fromiter(
            (self.encode_state(state) for state in configuration),
            dtype=np.int32,
            count=len(configuration),
        )

    def decode_configuration(self, indices: np.ndarray) -> Configuration:
        """Materialize a :class:`Configuration` from an index array (clones states)."""
        return Configuration.from_state_indices(self.states, indices)

    def state_counts(self, indices: np.ndarray) -> np.ndarray:
        """Histogram of state indices (length ``S``)."""
        return np.bincount(indices, minlength=self.num_states)

    def state_mask(self, predicate: Callable[[AgentState], bool]) -> np.ndarray:
        """Boolean mask of length ``S``: ``predicate(states[k])`` per state."""
        return np.fromiter(
            (predicate(state) for state in self.states), dtype=bool, count=self.num_states
        )

    def check_compatible(self, protocol: PopulationProtocol) -> None:
        """Reject reusing this table for a protocol with different dynamics.

        Compares protocol type, population size, and the enumerated state
        space, which catches parameter mismatches that reshape the table
        (e.g. differing ``R_max``).  Parameters that alter transition
        outcomes without changing the state list cannot be detected here.
        """
        source = self.protocol
        if source is protocol:
            return
        if type(source) is not type(protocol) or source.n != protocol.n:
            raise ValueError(
                f"compiled table was built for {source!r}, not {protocol!r}"
            )
        ours = [protocol.state_signature(s) for s in protocol.enumerate_states() or []]
        theirs = [source.state_signature(s) for s in source.enumerate_states() or []]
        if ours != theirs:
            raise ValueError(
                f"compiled table was built for {source!r}, whose enumerated "
                f"state space differs from {protocol!r} -- check protocol "
                "parameters"
            )

    # -- generic fast predicates ----------------------------------------------------

    def counts_silent(self, counts: np.ndarray) -> bool:
        """Exact silence check on a state-count vector.

        A configuration is silent iff no applicable entry of the table can
        change anything: for every ordered pair of *present* states the
        ``changes`` mask is ``False``, where a state interacting with itself
        requires at least two agents in that state to be applicable.
        """
        present = np.nonzero(counts > 0)[0]
        if len(present) == 0:
            return True
        sub = self.changes.reshape(self.num_states, self.num_states)[
            np.ix_(present, present)
        ].copy()
        lone = np.nonzero(counts[present] < 2)[0]
        sub[lone, lone] = False
        return not sub.any()


class ProtocolCompiler:
    """Compiles a :class:`PopulationProtocol` into a :class:`CompiledProtocol`.

    Parameters
    ----------
    max_states:
        Hard cap on the size of the enumerated state space; the dense tables
        are ``S^2`` entries, so this also bounds compile time and memory.
    probe_seeds:
        Seeds used to probe ``transition()`` for determinism when the protocol
        does not provide explicit :meth:`transition_branches`.  Differing
        outcomes across seeds raise :class:`CompilationError`.
    probability_tolerance:
        Tolerance when checking that explicit branch probabilities sum to 1.
    """

    def __init__(
        self,
        max_states: int = 2048,
        probe_seeds: Sequence[int] = (11, 17),
        probability_tolerance: float = 1e-9,
    ):
        if max_states < 1:
            raise ValueError(f"max_states must be positive, got {max_states}")
        if len(probe_seeds) < 2:
            raise ValueError("need at least two probe seeds to detect randomness")
        self.max_states = int(max_states)
        self.probe_seeds = tuple(probe_seeds)
        self.probability_tolerance = float(probability_tolerance)

    def compile(self, protocol: PopulationProtocol) -> CompiledProtocol:
        """Enumerate the reachable state space and build the transition tables.

        Product-structured protocols (see
        :meth:`~repro.engine.protocol.PopulationProtocol.compiled_factors`)
        are compiled by composing their components' tables instead of probing
        every composed transition; everything else goes through the generic
        closure over ``enumerate_states()``.
        """
        factors = protocol.compiled_factors()
        if factors is not None:
            return self._compose(protocol, factors)
        seeds = protocol.enumerate_states()
        if seeds is None:
            raise CompilationError(
                f"{protocol.name} does not implement enumerate_states(); "
                "the compiled engine needs a finite, enumerable state space"
            )

        states: List[AgentState] = []
        index: Dict[Hashable, int] = {}

        def intern(state: AgentState) -> int:
            signature = protocol.state_signature(state)
            existing = index.get(signature)
            if existing is not None:
                return existing
            if len(states) >= self.max_states:
                raise CompilationError(
                    f"{protocol.name}: state space exceeds max_states="
                    f"{self.max_states} during closure"
                )
            position = len(states)
            index[signature] = position
            states.append(state.clone())
            return position

        for seed_state in seeds:
            intern(seed_state)
        if not states:
            raise CompilationError(f"{protocol.name}: enumerate_states() returned no states")

        # Close the state set under the transition relation, recording the
        # branch list of every ordered pair as we go.
        table: Dict[Tuple[int, int], List[Tuple[float, int, int]]] = {}
        closed = 0
        while closed < len(states):
            boundary = len(states)
            for i in range(boundary):
                for j in range(boundary):
                    if i < closed and j < closed:
                        continue
                    table[(i, j)] = self._branches(protocol, states[i], states[j], intern)
            closed = boundary

        return self._build(protocol, states, table)

    # -- internals ------------------------------------------------------------------

    def _branches(
        self,
        protocol: PopulationProtocol,
        initiator: AgentState,
        responder: AgentState,
        intern: Callable[[AgentState], int],
    ) -> List[Tuple[float, int, int]]:
        """Branch list ``[(probability, initiator', responder')]`` for one pair."""
        explicit = protocol.transition_branches(initiator.clone(), responder.clone())
        if explicit is not None:
            if not explicit:
                raise CompilationError(
                    f"{protocol.name}: transition_branches() returned no branches"
                )
            total = 0.0
            encoded: List[Tuple[float, int, int]] = []
            for probability, new_initiator, new_responder in explicit:
                probability = float(probability)
                if probability <= 0.0:
                    raise CompilationError(
                        f"{protocol.name}: branch probability must be positive, "
                        f"got {probability}"
                    )
                total += probability
                encoded.append((probability, intern(new_initiator), intern(new_responder)))
            if abs(total - 1.0) > self.probability_tolerance:
                raise CompilationError(
                    f"{protocol.name}: branch probabilities sum to {total}, expected 1"
                )
            return encoded

        [(probability, result_initiator, result_responder)] = probe_deterministic_branch(
            protocol, initiator, responder, self.probe_seeds
        )
        return [(probability, intern(result_initiator), intern(result_responder))]

    def _build(
        self,
        protocol: PopulationProtocol,
        states: List[AgentState],
        table: Dict[Tuple[int, int], List[Tuple[float, int, int]]],
    ) -> CompiledProtocol:
        num_states = len(states)
        max_branches = max(len(branches) for branches in table.values())
        entries = num_states * num_states

        changes = np.zeros(entries, dtype=bool)
        if max_branches == 1:
            result_initiator = np.empty(entries, dtype=np.int32)
            result_responder = np.empty(entries, dtype=np.int32)
            branch_cumprob = None
            for (i, j), branches in table.items():
                row = i * num_states + j
                _, new_i, new_j = branches[0]
                result_initiator[row] = new_i
                result_responder[row] = new_j
                changes[row] = new_i != i or new_j != j
        else:
            result_initiator = np.empty((entries, max_branches), dtype=np.int32)
            result_responder = np.empty((entries, max_branches), dtype=np.int32)
            branch_cumprob = np.ones((entries, max_branches), dtype=np.float64)
            for (i, j), branches in table.items():
                row = i * num_states + j
                cumulative = 0.0
                for k in range(max_branches):
                    probability, new_i, new_j = branches[min(k, len(branches) - 1)]
                    if k < len(branches):
                        cumulative += probability
                        changes[row] |= new_i != i or new_j != j
                    result_initiator[row, k] = new_i
                    result_responder[row, k] = new_j
                    branch_cumprob[row, k] = min(cumulative, 1.0)
                branch_cumprob[row, -1] = 1.0

        return CompiledProtocol(
            protocol=protocol,
            states=states,
            result_initiator=result_initiator,
            result_responder=result_responder,
            branch_cumprob=branch_cumprob,
            changes=changes,
        )

    # -- product composition --------------------------------------------------------

    def _compose(
        self, protocol: PopulationProtocol, factors: Sequence[PopulationProtocol]
    ) -> CompiledProtocol:
        """Build the product table of ``protocol`` from its factors' tables.

        Each factor is compiled independently (recursively -- a factor may
        itself declare factors) and the dense tables are combined by index
        arithmetic: the composed state ``(a, b)`` is encoded as
        ``a * S_b + b``, branch probabilities multiply across layers, and an
        entry changes iff some layer's entry changes.  No composed transition
        is ever probed, so composition cost is ``O(S^2 B)`` NumPy work rather
        than ``O(S^2)`` Python transition calls.
        """
        if len(factors) < 2:
            raise CompilationError(
                f"{protocol.name}: compiled_factors() must return at least two "
                f"components, got {len(factors)}"
            )
        compiled_factors: List[CompiledProtocol] = []
        for factor in factors:
            if factor.n != protocol.n:
                raise CompilationError(
                    f"{protocol.name}: component {factor.name} has population "
                    f"size {factor.n}, expected {protocol.n}"
                )
            try:
                compiled_factors.append(self.compile(factor))
            except CompilationError as error:
                raise CompilationError(
                    f"{protocol.name}: component {factor.name} is not "
                    f"compilable: {error}"
                ) from error

        product_states = 1
        for compiled in compiled_factors:
            product_states *= compiled.num_states
        if product_states > self.max_states:
            raise CompilationError(
                f"{protocol.name}: product state space has {product_states} "
                f"states, exceeding max_states={self.max_states}"
            )

        tables = _as_raw_tables(compiled_factors[0])
        for compiled in compiled_factors[1:]:
            tables = _product_tables(tables, _as_raw_tables(compiled))

        states = [
            protocol.compose_state([state.clone() for state in combination])
            for combination in itertools.product(
                *(compiled.states for compiled in compiled_factors)
            )
        ]

        result_initiator, result_responder = tables["initiator"], tables["responder"]
        max_branches = result_initiator.shape[1]
        if max_branches == 1:
            result_initiator = result_initiator[:, 0].copy()
            result_responder = result_responder[:, 0].copy()
            branch_cumprob = None
        else:
            branch_cumprob = np.minimum(np.cumsum(tables["probability"], axis=1), 1.0)
            branch_cumprob[:, -1] = 1.0
        return CompiledProtocol(
            protocol=protocol,
            states=states,
            result_initiator=result_initiator.astype(np.int32, copy=False),
            result_responder=result_responder.astype(np.int32, copy=False),
            branch_cumprob=branch_cumprob,
            changes=tables["changes"],
            factor_tables=compiled_factors,
        )


def compile_or_reuse(
    protocol: PopulationProtocol,
    compiled: Optional[CompiledProtocol] = None,
    compiler: Optional[ProtocolCompiler] = None,
) -> CompiledProtocol:
    """The table an engine runs: ``compiled`` (checked against ``protocol``)
    when given, otherwise a fresh compile with ``compiler`` (default one)."""
    if compiled is None:
        return (compiler or ProtocolCompiler()).compile(protocol)
    compiled.check_compatible(protocol)
    return compiled


def _as_raw_tables(compiled: CompiledProtocol) -> Dict[str, np.ndarray]:
    """Normalize a compiled table to the branch-explicit raw form.

    Raw form: ``initiator`` / ``responder`` of shape ``(S^2, B)``,
    per-branch ``probability`` (``B = 1`` with probability 1 for
    deterministic tables), plus ``changes`` and ``num_states``.
    """
    if compiled.branch_cumprob is None:
        initiator = compiled.result_initiator.reshape(-1, 1)
        responder = compiled.result_responder.reshape(-1, 1)
        probability = np.ones_like(initiator, dtype=np.float64)
    else:
        initiator = compiled.result_initiator
        responder = compiled.result_responder
        probability = np.diff(compiled.branch_cumprob, axis=1, prepend=0.0)
    return {
        "num_states": compiled.num_states,
        "initiator": initiator,
        "responder": responder,
        "probability": probability,
        "changes": compiled.changes,
    }


def _product_tables(left: Dict[str, np.ndarray], right: Dict[str, np.ndarray]) -> Dict:
    """Combine two raw tables into the raw table of their product protocol.

    With ``S_l`` / ``S_r`` states and ``B_l`` / ``B_r`` branches, the product
    has ``S_l * S_r`` states (state ``(a, b)`` encoded as ``a * S_r + b``) and
    ``B_l * B_r`` branches whose probabilities multiply.  Padded zero-width
    branches stay zero-width, so sampling never selects them.
    """
    num_left, num_right = left["num_states"], right["num_states"]
    branches_left = left["initiator"].shape[1]
    branches_right = right["initiator"].shape[1]
    num_states = num_left * num_right

    def combine(channel: str) -> np.ndarray:
        expanded_left = left[channel].reshape(
            num_left, 1, num_left, 1, branches_left, 1
        )
        expanded_right = right[channel].reshape(
            1, num_right, 1, num_right, 1, branches_right
        )
        if channel == "probability":
            combined = expanded_left * expanded_right
        else:
            combined = expanded_left.astype(np.int64) * num_right + expanded_right
        return combined.reshape(num_states * num_states, branches_left * branches_right)

    changes = (
        left["changes"].reshape(num_left, 1, num_left, 1)
        | right["changes"].reshape(1, num_right, 1, num_right)
    ).reshape(num_states * num_states)
    return {
        "num_states": num_states,
        "initiator": combine("initiator"),
        "responder": combine("responder"),
        "probability": combine("probability"),
        "changes": changes,
    }


__all__ = [
    "CompilationError",
    "CompiledProtocol",
    "ProtocolCompiler",
    "compile_or_reuse",
    "probe_deterministic_branch",
]
