import json
import os
import pathlib

import numpy as np
import pytest

import delaystab
from delaystab import BamSpec, GeneralSystemSpec, LinearSystemSpec

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"

# CLI tests run `python -m delaystab` in a subprocess; let it import the same
# package as this process, also when that comes from pytest's `pythonpath`
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(pathlib.Path(delaystab.__file__).parent.parent),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture
def inputs_dir():
    return INPUTS


@pytest.fixture
def two_neuron_doc():
    return json.loads((INPUTS / "two_neuron_sample.json").read_text())


@pytest.fixture
def modulated_doc():
    return json.loads((INPUTS / "bam_modulated.json").read_text())


@pytest.fixture
def linear_doc():
    return json.loads((INPUTS / "linear_coupled.json").read_text())


@pytest.fixture
def general_2x2():
    # hand-checked bounds; comparison matrix entries are exact decimals
    return GeneralSystemSpec(
        alpha=[2.0, 2.5], A=[2.2, 3.0], tau=[0.1, 0.05],
        sigma=[[0.1, 0.2], [0.2, 0.1]],
        L=[[0.3, 0.4], [0.2, 0.1]],
    )


@pytest.fixture
def linear_2x2():
    return LinearSystemSpec(
        alpha=[1.0, 1.0], A=[1.2, 1.1],
        A_off=[[0.0, 0.3], [0.25, 0.0]],
        sigma=[[0.2, 0.4], [0.3, 0.1]],
    )


def random_bam(rng, n=None) -> BamSpec:
    """A random well-formed two-layer spec (shared by several suites)."""
    if n is None:
        n = int(rng.integers(1, 5))
    r_lo = rng.uniform(0.5, 1.5, n)
    p_lo = rng.uniform(0.5, 1.5, n)
    return BamSpec(
        a=rng.uniform(0.5, 2.0, n), b=rng.uniform(0.5, 2.0, n),
        a_conn=rng.normal(0.0, 1.0, (n, n)), b_conn=rng.normal(0.0, 1.0, (n, n)),
        Lf=rng.uniform(0.0, 1.0, n), Lg=rng.uniform(0.0, 1.0, n),
        r_lo=r_lo, r_hi=r_lo + rng.uniform(0.0, 1.0, n),
        p_lo=p_lo, p_hi=p_lo + rng.uniform(0.0, 1.0, n),
        tau_x=rng.uniform(0.0, 0.5, n), tau_y=rng.uniform(0.0, 0.5, n),
        sigma_x=rng.uniform(0.0, 0.5, n), sigma_y=rng.uniform(0.0, 0.5, n),
        I=rng.normal(0.0, 5.0, n), J=rng.normal(0.0, 5.0, n),
    )


def random_general(rng, m=None, coupling_scale=1.0) -> GeneralSystemSpec:
    if m is None:
        m = int(rng.integers(1, 5))
    alpha = rng.uniform(0.5, 2.0, m)
    return GeneralSystemSpec(
        alpha=alpha, A=alpha + rng.uniform(0.0, 1.0, m),
        tau=rng.uniform(0.0, 0.2, m),
        sigma=rng.uniform(0.0, 0.5, (m, m)),
        L=rng.uniform(0.0, coupling_scale / m, (m, m)),
    )
