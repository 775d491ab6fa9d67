"""Unit tests for the protocol compiler (repro.engine.compiled)."""

import numpy as np
import pytest

from repro.core.propagate_reset import ResetWaveProtocol
from repro.core.silent_n_state import SilentNStateSSR, SilentNStateState
from repro.engine.compiled import CompilationError, ProbeGenerators, ProtocolCompiler
from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import make_rng
from repro.engine.state import AgentState
from repro.processes.epidemic import EpidemicState, TwoWayEpidemicProtocol
from repro.processes.roll_call import RollCallProtocol


class BitState(AgentState):
    def __init__(self, bit: int):
        self.bit = int(bit)

    def signature(self):
        return self.bit


class LazyEpidemicProtocol(PopulationProtocol):
    """Randomized test protocol: an infected initiator infects with prob. p."""

    name = "lazy-epidemic"

    def __init__(self, n: int, p: float = 0.25, declare_branches: bool = True):
        super().__init__(n)
        self.p = p
        self.declare_branches = declare_branches

    def initial_state(self, agent_id, rng):
        return BitState(1 if agent_id == 0 else 0)

    def transition(self, initiator, responder, rng):
        if initiator.bit == 1 and responder.bit == 0 and rng.random() < self.p:
            responder.bit = 1

    def is_correct(self, configuration):
        return all(state.bit == 1 for state in configuration)

    def enumerate_states(self):
        return [BitState(0), BitState(1)]

    def transition_branches(self, initiator, responder):
        if not self.declare_branches:
            return None
        if initiator.bit == 1 and responder.bit == 0:
            branches = [
                (self.p, BitState(1), BitState(1)),
                (1.0 - self.p, BitState(1), BitState(0)),
            ]
            return [branch for branch in branches if branch[0] > 0.0]
        return [(1.0, initiator, responder)]


class TestEpidemicTable:
    def test_state_space_and_determinism(self):
        compiled = ProtocolCompiler().compile(TwoWayEpidemicProtocol(10))
        assert compiled.num_states == 2
        assert compiled.deterministic
        assert compiled.max_branches == 1

    def test_table_entries_match_transition(self):
        compiled = ProtocolCompiler().compile(TwoWayEpidemicProtocol(10))
        susceptible = compiled.encode_state(EpidemicState(False))
        infected = compiled.encode_state(EpidemicState(True))
        size = compiled.num_states
        for a, b, expect_a, expect_b in [
            (susceptible, susceptible, susceptible, susceptible),
            (susceptible, infected, infected, infected),
            (infected, susceptible, infected, infected),
            (infected, infected, infected, infected),
        ]:
            row = a * size + b
            assert compiled.result_initiator[row] == expect_a
            assert compiled.result_responder[row] == expect_b

    def test_changes_mask(self):
        compiled = ProtocolCompiler().compile(TwoWayEpidemicProtocol(10))
        susceptible = compiled.encode_state(EpidemicState(False))
        infected = compiled.encode_state(EpidemicState(True))
        size = compiled.num_states
        changes = compiled.changes
        assert not changes[susceptible * size + susceptible]
        assert not changes[infected * size + infected]
        assert changes[susceptible * size + infected]
        assert changes[infected * size + susceptible]


class TestSilentNStateTable:
    def test_state_space_is_exactly_n(self):
        n = 24
        compiled = ProtocolCompiler().compile(SilentNStateSSR(n))
        assert compiled.num_states == n

    def test_equal_ranks_bump_responder(self):
        n = 8
        protocol = SilentNStateSSR(n)
        compiled = ProtocolCompiler().compile(protocol)
        for rank in range(n):
            index = compiled.encode_state(SilentNStateState(rank))
            row = index * n + index
            bumped = compiled.encode_state(SilentNStateState((rank + 1) % n))
            assert compiled.result_initiator[row] == index
            assert compiled.result_responder[row] == bumped

    def test_state_space_cap_enforced(self):
        with pytest.raises(CompilationError, match="max_states"):
            ProtocolCompiler(max_states=10).compile(SilentNStateSSR(32))


class TestClosure:
    def test_roll_call_closure_reaches_all_rosters(self):
        n = 4
        compiled = ProtocolCompiler().compile(RollCallProtocol(n))
        # Reachable states: (id, roster containing id) -> n * 2^(n-1).
        assert compiled.num_states == n * 2 ** (n - 1)

    def test_reset_wave_state_space(self):
        protocol = ResetWaveProtocol(64, rmax=4, dmax=3)
        compiled = ProtocolCompiler().compile(protocol)
        assert compiled.num_states == protocol.theoretical_state_count() == 1 + 5 * 4


class TestProbeGenerators:
    def test_every_pass_replays_the_seed_streams(self):
        probes = ProbeGenerators((11, 17))
        expected = [make_rng(seed).random(3).tolist() for seed in (11, 17)]
        for _ in range(3):
            assert [rng.random(3).tolist() for rng in probes] == expected


class TestRepeatedCompiles:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ResetWaveProtocol(8, rmax=3, dmax=3),
            lambda: LazyEpidemicProtocol(8, p=0.25),
        ],
        ids=["reset-wave", "lazy-epidemic"],
    )
    def test_two_compiles_give_identical_arrays(self, factory):
        first = ProtocolCompiler().compile(factory())
        second = ProtocolCompiler().compile(factory())
        assert [s.signature() for s in first.states] == [s.signature() for s in second.states]
        for channel in ("result_initiator", "result_responder", "changes", "packed_result"):
            left, right = getattr(first, channel), getattr(second, channel)
            assert left.dtype == right.dtype and left.tobytes() == right.tobytes()
        if first.branch_cumprob is None:
            assert second.branch_cumprob is None
        else:
            assert first.branch_cumprob.tobytes() == second.branch_cumprob.tobytes()


class TestErrors:
    def test_non_enumerable_protocol_rejected(self):
        from repro.core.initialized_ranking import InitializedLeaderDrivenRanking

        with pytest.raises(CompilationError, match="enumerate_states"):
            ProtocolCompiler().compile(InitializedLeaderDrivenRanking(8))

    def test_hidden_randomness_detected(self):
        protocol = LazyEpidemicProtocol(8, p=0.5, declare_branches=False)
        with pytest.raises(CompilationError, match="randomized"):
            ProtocolCompiler().compile(protocol)

    def test_hidden_randomness_detected_after_deterministic_compile(self):
        # The probe generators are rewound per probe, never shared across
        # compiles, so an earlier compile cannot make both probes agree.
        ProtocolCompiler().compile(SilentNStateSSR(6))
        protocol = LazyEpidemicProtocol(8, p=0.5, declare_branches=False)
        with pytest.raises(CompilationError, match="randomized"):
            ProtocolCompiler().compile(protocol)

    def test_encode_state_outside_space_rejected(self):
        compiled = ProtocolCompiler().compile(SilentNStateSSR(4))
        with pytest.raises(CompilationError, match="outside"):
            compiled.encode_state(SilentNStateState(17))


class TestBranchChannel:
    def test_branch_probabilities_are_cumulative(self):
        protocol = LazyEpidemicProtocol(8, p=0.25)
        compiled = ProtocolCompiler().compile(protocol)
        assert not compiled.deterministic
        assert compiled.max_branches == 2
        one = compiled.encode_state(BitState(1))
        zero = compiled.encode_state(BitState(0))
        row = one * compiled.num_states + zero
        np.testing.assert_allclose(compiled.branch_cumprob[row], [0.25, 1.0])
        assert compiled.result_responder[row, 0] == one
        assert compiled.result_responder[row, 1] == zero
        assert compiled.changes[row]

    def test_null_rows_are_padded_with_identity(self):
        protocol = LazyEpidemicProtocol(8, p=0.25)
        compiled = ProtocolCompiler().compile(protocol)
        zero = compiled.encode_state(BitState(0))
        row = zero * compiled.num_states + zero
        assert not compiled.changes[row]
        assert np.all(compiled.result_initiator[row] == zero)
        assert np.all(compiled.result_responder[row] == zero)

    def test_bad_probabilities_rejected(self):
        class BrokenBranches(LazyEpidemicProtocol):
            def transition_branches(self, initiator, responder):
                return [(0.5, BitState(0), BitState(0))]

        with pytest.raises(CompilationError, match="sum"):
            ProtocolCompiler().compile(BrokenBranches(8))


class TestEncodeDecode:
    def test_round_trip(self):
        protocol = SilentNStateSSR(6)
        compiled = ProtocolCompiler().compile(protocol)
        configuration = protocol.worst_case_configuration()
        indices = compiled.encode_configuration(configuration)
        decoded = compiled.decode_configuration(indices)
        assert [s.rank for s in decoded] == [s.rank for s in configuration]

    def test_decode_clones_exemplars(self):
        protocol = SilentNStateSSR(4)
        compiled = ProtocolCompiler().compile(protocol)
        decoded = compiled.decode_configuration(np.array([0, 0, 1, 2]))
        decoded[0].rank = 3
        assert compiled.states[0].rank == 0

    def test_state_counts(self):
        protocol = SilentNStateSSR(4)
        compiled = ProtocolCompiler().compile(protocol)
        ranks = [compiled.encode_state(SilentNStateState(r)) for r in (0, 0, 0, 2)]
        counts = compiled.state_counts(np.array(ranks))
        assert counts.sum() == 4
        assert counts[compiled.encode_state(SilentNStateState(0))] == 3


class TestCountsSilent:
    def test_distinct_ranks_are_silent(self):
        protocol = SilentNStateSSR(4)
        compiled = ProtocolCompiler().compile(protocol)
        indices = compiled.encode_configuration(
            Configuration([SilentNStateState(r) for r in range(4)])
        )
        assert compiled.counts_silent(compiled.state_counts(indices))

    def test_duplicate_rank_not_silent(self):
        protocol = SilentNStateSSR(4)
        compiled = ProtocolCompiler().compile(protocol)
        indices = compiled.encode_configuration(
            Configuration([SilentNStateState(r) for r in (0, 0, 1, 2)])
        )
        assert not compiled.counts_silent(compiled.state_counts(indices))
