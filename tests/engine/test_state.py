"""Unit tests for the AgentState base class."""

import copy
import pickle

import numpy as np
import pytest

from repro.adversary.byzantine import TaggedState
from repro.core.composition import ComposedState
from repro.core.epsilon_consensus import EpsilonConsensusProtocol
from repro.core.fratricide import FratricideState
from repro.core.initialized_ranking import InitializedRankingState
from repro.core.observation25 import ThreeAgentSSLEWithoutRanking
from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.propagate_reset import ResetWaveProtocol
from repro.core.silent_n_state import SilentNStateState
from repro.core.sublinear.protocol import SublinearTimeSSR
from repro.derandomize.synthetic_coin import SyntheticCoinState
from repro.engine.state import AgentState, _freeze
from repro.processes.bounded_epidemic import LevelState
from repro.processes.epidemic import EpidemicState
from repro.processes.roll_call import RollCallState


class Example(AgentState):
    def __init__(self, rank=0, tags=None, _cache=None):
        self.rank = rank
        self.tags = tags if tags is not None else []
        self._cache = _cache


class TestFields:
    def test_fields_excludes_private_attributes(self):
        state = Example(rank=3, _cache="hidden")
        assert state.fields() == {"rank": 3, "tags": []}

    def test_fields_reflect_mutation(self):
        state = Example(rank=1)
        state.rank = 7
        assert state.fields()["rank"] == 7


class TestSignatureAndEquality:
    def test_equal_states_have_equal_signatures(self):
        assert Example(rank=2, tags=[1, 2]).signature() == Example(rank=2, tags=[1, 2]).signature()

    def test_different_states_have_different_signatures(self):
        assert Example(rank=2).signature() != Example(rank=3).signature()

    def test_private_fields_do_not_affect_signature(self):
        assert Example(rank=2, _cache="a").signature() == Example(rank=2, _cache="b").signature()

    def test_equality_and_hash(self):
        a, b = Example(rank=5), Example(rank=5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Example(rank=6)

    def test_equality_against_non_state(self):
        assert Example(rank=1) != 42

    def test_different_types_are_not_equal(self):
        class Other(AgentState):
            def __init__(self):
                self.rank = 1

        assert Example(rank=1) != Other()

    def test_signature_is_hashable_with_nested_containers(self):
        state = Example(rank=1, tags=[{"a": 1}, {2, 3}, (4, [5])])
        hash(state.signature())


class TestClone:
    def test_clone_is_deep(self):
        state = Example(rank=1, tags=[1, 2])
        copy = state.clone()
        copy.tags.append(3)
        assert state.tags == [1, 2]

    def test_clone_preserves_equality(self):
        state = Example(rank=4, tags=["x"])
        assert state.clone() == state

    def test_nested_values_are_independent(self):
        inner = Example(rank=2, tags=[7])
        state = Example(rank=1, tags=[{"k": [1]}, inner])
        duplicate = state.clone()
        duplicate.tags[0]["k"].append(2)
        duplicate.tags[1].tags.append(8)
        duplicate.tags[1].rank = 3
        assert state.tags[0] == {"k": [1]}
        assert inner.tags == [7] and inner.rank == 2
        assert duplicate.tags[1] is not inner

    def test_aliased_fields_stay_aliased(self):
        shared = [1, 2]
        state = Example(rank=1, tags=shared, _cache=shared)
        duplicate = state.clone()
        assert duplicate.tags is duplicate._cache
        assert duplicate.tags is not shared

    def test_private_fields_are_copied(self):
        state = Example(rank=1, _cache={"hits": [3]})
        duplicate = state.clone()
        assert duplicate._cache == {"hits": [3]}
        assert duplicate._cache is not state._cache

    def test_init_is_not_rerun(self):
        class Counting(AgentState):
            constructed = 0

            def __init__(self, rank):
                type(self).constructed += 1
                self.rank = rank

        state = Counting(5)
        duplicate = state.clone()
        assert Counting.constructed == 1
        assert type(duplicate) is Counting and duplicate.rank == 5


def _sublinear_exemplar() -> AgentState:
    """A Sublinear-Time-SSR state whose history tree has grown edges."""
    protocol = SublinearTimeSSR(6)
    rng = np.random.default_rng(4)
    configuration = protocol.random_configuration(rng)
    for _ in range(300):
        i, j = rng.choice(len(configuration), size=2, replace=False)
        protocol.transition(configuration[i], configuration[j], rng)
    states = [state for state in configuration if state.tree is not None]
    return max(states, key=lambda state: len(state.tree.edges))


#: One exemplar per catalogue state class, with non-default field values.
STATE_EXEMPLARS = {
    "optimal-silent": lambda: OptimalSilentSSR(5).random_state(np.random.default_rng(2)),
    "sublinear": _sublinear_exemplar,
    "tagged": lambda: TaggedState(1, SilentNStateState(3)),
    "level": lambda: LevelState(4),
    "fratricide": lambda: FratricideState(True),
    "three-agent": lambda: ThreeAgentSSLEWithoutRanking().initial_state(1, None),
    "initialized-ranking": lambda: InitializedRankingState("Settled", rank=2, children=1),
    "synthetic-coin": lambda: SyntheticCoinState("Flip", bits="10", bits_needed=3),
    "epidemic": lambda: EpidemicState(True),
    "roll-call": lambda: RollCallState(2, frozenset({0, 2})),
    "reset-wave": lambda: ResetWaveProtocol(8).random_state(np.random.default_rng(3)),
    "epsilon-consensus": lambda: EpsilonConsensusProtocol(8).random_state(
        np.random.default_rng(5)
    ),
    "silent-n-state": lambda: SilentNStateState(6),
    "composed": lambda: ComposedState(FratricideState(False), SilentNStateState(1)),
}


@pytest.mark.parametrize("name", sorted(STATE_EXEMPLARS))
def test_base_clone_matches_deepcopy(name):
    """The base clone (used by every class without an override) is a deepcopy."""
    state = STATE_EXEMPLARS[name]()
    duplicate = AgentState.clone(state)
    assert type(duplicate) is type(state)
    assert pickle.dumps(duplicate) == pickle.dumps(copy.deepcopy(state))
    assert duplicate == state


class TestFreeze:
    def test_freeze_dict_is_order_insensitive(self):
        assert _freeze({"a": 1, "b": 2}) == _freeze({"b": 2, "a": 1})

    def test_freeze_handles_nested_state(self):
        inner = Example(rank=9)
        assert _freeze([inner]) == (inner.signature(),)


class TestRepr:
    def test_repr_contains_fields(self):
        text = repr(Example(rank=3))
        assert "rank=3" in text and "Example" in text
