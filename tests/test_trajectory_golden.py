"""Golden trajectories: recorded states of whole runs.

`golden_trajectories.json` holds every tenth row (`record_every=10`) of the
`states` of five integrations, recorded before the integrator resolved
delayed reads once per stage time:

* the shipped two-neuron, linear and two-layer documents,
* an inline two-neuron document whose sin^2 transmission lags cross zero (so
  the sub-step fallback is exercised),
* a general system with an undelayed self-decay term.

Every entry must agree to rtol 1e-12 (no absolute slack).

Regenerate (only when a change of trajectory is intended and explained):

    PYTHONPATH=src python tests/test_trajectory_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from delaystab import GeneralConcrete, GeneralSystemSpec, SimConfig, parse_document, simulate
from delaystab.specio import load_json
from delaystab.systems import Constant, ShiftedAbsSinLag, Sinusoid, TanhActivation

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_trajectories.json"
RTOL = 1e-12
RECORD_EVERY = 10

SIN_SQUARED_DOC = {
    "kind": "two_neuron",
    "spec": {"a": 0.8, "b": 0.5, "coupling_xy": 1.0, "coupling_yx": 1.0,
             "I": 0.0, "J": 0.0},
    "dynamics": {
        "rate_x": {"type": "constant", "value": 1.0},
        "rate_y": {"type": "constant", "value": 1.0},
        "leak_x": {"type": "constant", "value": 0.5},
        "leak_y": {"type": "constant", "value": 0.4},
        "trans_x": {"type": "sin_squared", "amp": 0.4},
        "trans_y": {"type": "sin_squared", "amp": 0.5},
        "f": {"type": "tanh_scaled", "k": 0.5},
        "g": {"type": "tanh_scaled", "k": 0.2},
    },
    "history": [1.0, -0.5],
}


def general_with_undelayed_leak():
    """Two components; the first decays on its undelayed state."""
    spec = GeneralSystemSpec(alpha=[0.8, 1.0], A=[1.2, 1.0], tau=[0.0, 0.3],
                             sigma=[[0.0, 0.25], [0.4, 0.0]],
                             L=[[0.0, 0.4], [0.3, 0.0]])
    return GeneralConcrete(spec, [Sinusoid(1.0, 0.2), Constant(1.0)],
                           [None, Constant(0.3)],
                           [[None, ShiftedAbsSinLag(0.05, 0.2)], [None, None]],
                           [[None, TanhActivation(0.4)], [TanhActivation(0.3), None]],
                           [0.7, -0.4])


def _document(path):
    return lambda: parse_document(load_json(str(ROOT / path))).concrete


# name -> (system builder, t_end); the step is the CLI's default step
CASES = {
    "inputs/two_neuron_sample": (_document("inputs/two_neuron_sample.json"), 5.0),
    "inputs/linear_coupled": (_document("inputs/linear_coupled.json"), 5.0),
    "inputs/bam_modulated": (_document("inputs/bam_modulated.json"), 0.05),
    "two_neuron_sin_squared": (lambda: parse_document(SIN_SQUARED_DOC).concrete, 5.0),
    "general_undelayed_leak": (general_with_undelayed_leak, 4.0),
}


def run(name):
    build, t_end = CASES[name]
    system = build()
    cfg = SimConfig(0.0, t_end, record_every=RECORD_EVERY)
    return simulate(system, cfg)


def record() -> dict:
    out = {}
    for name in CASES:
        traj = run(name)
        out[name] = {"states": traj.states.tolist()}
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(name):
    got = run(name).states
    expected = np.asarray(json.loads(GOLDEN.read_text())[name]["states"])
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0.0)


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
