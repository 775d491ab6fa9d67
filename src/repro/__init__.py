"""repro: reproduction of "Time-Optimal Self-Stabilizing Leader Election in
Population Protocols" (Burman, Chen, Chen, Doty, Nowak, Severson, Xu; PODC 2021).

The package provides:

* a population-protocol simulation engine (:mod:`repro.engine`),
* the probabilistic processes of Section 2.1 (:mod:`repro.processes`),
* the paper's protocols -- the ``Silent-n-state-SSR`` baseline,
  ``Optimal-Silent-SSR``, and ``Sublinear-Time-SSR`` with history-tree
  collision detection (:mod:`repro.core`),
* adversarial configurations and fault injection (:mod:`repro.adversary`),
* closed-form predictions, tail bounds, and scaling fits (:mod:`repro.analysis`),
* the synthetic-coin derandomization of Section 6 (:mod:`repro.derandomize`),
* an experiment harness reproducing Table 1 and every quantitative claim
  (:mod:`repro.experiments`) with a CLI (``python -m repro``).

Quickstart
----------
>>> from repro import OptimalSilentSSR, Simulation
>>> protocol = OptimalSilentSSR(32, rmax_multiplier=4.0)
>>> simulation = Simulation(protocol, rng=0)
>>> result = simulation.run_until_stabilized()
>>> sorted(state.rank for state in simulation.configuration) == list(range(1, 33))
True
"""

from repro.adversary.byzantine import ByzantineSpec
from repro.adversary.plan import FaultEvent, FaultPlan
from repro.adversary.schedulers import SchedulerSpec
from repro.core import (
    EpsilonConsensusProtocol,
    FratricideLeaderElection,
    OptimalSilentSSR,
    ResetWaveProtocol,
    SilentNStateSSR,
    SublinearTimeSSR,
    ThreeAgentSSLEWithoutRanking,
)
from repro.engine import (
    BatchSimulation,
    CompilationError,
    CompiledProtocol,
    Configuration,
    CountsSimulation,
    PopulationProtocol,
    ProtocolCompiler,
    RunConfig,
    Simulation,
    SimulationResult,
    TrialStatistics,
    UniformPairScheduler,
    make_rng,
    make_simulation,
)

__version__ = "1.8.0"

__all__ = [
    "BatchSimulation",
    "ByzantineSpec",
    "CompilationError",
    "CompiledProtocol",
    "Configuration",
    "CountsSimulation",
    "EpsilonConsensusProtocol",
    "FaultEvent",
    "FaultPlan",
    "FratricideLeaderElection",
    "OptimalSilentSSR",
    "PopulationProtocol",
    "ProtocolCompiler",
    "ResetWaveProtocol",
    "RunConfig",
    "SchedulerSpec",
    "SilentNStateSSR",
    "Simulation",
    "SimulationResult",
    "SublinearTimeSSR",
    "ThreeAgentSSLEWithoutRanking",
    "TrialStatistics",
    "UniformPairScheduler",
    "__version__",
    "make_rng",
    "make_simulation",
]
