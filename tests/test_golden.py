"""Golden equivalence gate: W0, W1, norms and ledger against stored values.

The reference values in tests/golden/ were captured once by
tests/golden/capture.py (gamma = 0.7, eps = 0.2, delta = eps^3, 5 nodes per
lobe); rowwise.json holds the row-by-row corrector sizes that the
`corrector` experiment reports.  Arrays are compared relative to their own max-norm, scalars
relative to themselves.  Values that contain the mean flow W1_MF get 1e-9
instead of 1e-10: its theta' profile is evaluated in closed form, where the
captured values used a central difference accurate to about 2e-10.

dns.npz holds a 20-step nonlinear DNS trajectory (the energy, dissipation
and projection-loss series and the final u, w, b, p at every 4th row and
column).  Its arrays are compared at 1e-8 relative to their max-norm; the
projection loss, a difference of two energies, at 1e-12 of the initial
energy.

lift.npz holds the wall lifts of the `lift` experiment's first seed-0
traces in its three regimes: the rates, the mode coefficients a (U, W, B)
and the non-oscillating leftover w-trace, compared at 1e-12 relative to
each array's max-norm.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-10
RTOL_MF = 1e-9
RTOL_DNS = 1e-8
ATOL_PROJ_LOSS = 1e-12  # times the initial energy
RTOL_LIFT = 1e-12

_spec = importlib.util.spec_from_file_location("golden_capture", GOLDEN / "capture.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)


@pytest.fixture(scope="module")
def case():
    return capture.reference_case()


@pytest.fixture(scope="module")
def observed(case):
    return capture.capture(*case)


@pytest.fixture(scope="module")
def observed_rowwise(case):
    return capture.capture_rowwise(case[0])


@pytest.fixture(scope="module")
def golden_arrays():
    with np.load(GOLDEN / "fields.npz") as data:
        return {k: data[k] for k in data.files}


@pytest.fixture(scope="module")
def golden_scalars():
    return json.loads((GOLDEN / "scalars.json").read_text())


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def test_grid_unchanged(observed, golden_arrays):
    arrays, _ = observed
    for key in ("x", "y"):
        assert np.abs(arrays[key] - golden_arrays[key]).max() <= RTOL * np.abs(golden_arrays[key]).max()


@pytest.mark.parametrize("name", [f"{tag}_{c}" for tag in ("W0", "W0_dx", "W0_dy", "W1")
                                  for c in "uwb"])
def test_fields(observed, golden_arrays, name):
    arrays, _ = observed
    want = golden_arrays[name]
    rtol = RTOL_MF if name.startswith("W1") else RTOL
    err = np.abs(arrays[name] - want).max()
    assert err <= rtol * np.abs(want).max(), (name, err / np.abs(want).max())


def test_corrector_norms(observed, golden_scalars):
    _, scalars = observed
    for fam, want in golden_scalars["W1_norms"].items():
        rtol = RTOL_MF if fam == capture.C.W1_MF else RTOL
        for got, w in zip(scalars["W1_norms"][fam], want):
            assert _close(got, w, rtol), (fam, got, w)


def test_residual_ledger(observed, golden_scalars):
    _, scalars = observed
    got = scalars["residual_Rapp"]
    want = golden_scalars["residual_Rapp"]
    assert list(got) == list(want)
    for term, w in want.items():
        rtol = RTOL_MF if term in ("r1_aMF", "total") else RTOL
        assert _close(got[term], w, rtol), (term, got[term], w)


def test_packet_norms(observed, golden_scalars):
    _, scalars = observed
    for fam, want in golden_scalars["packet_norms"].items():
        for got, w in zip(scalars["packet_norms"][fam], want):
            assert _close(got, w, RTOL), (fam, got, w)


def test_rowwise_family_sizes(observed_rowwise):
    want = json.loads((GOLDEN / "rowwise.json").read_text())
    assert list(observed_rowwise) == list(want)
    for fam, sizes in want.items():
        rtol = RTOL_MF if fam == capture.C.W1_MF else RTOL
        for got, w in zip(observed_rowwise[fam], sizes):
            assert _close(got, w, rtol), (fam, got, w)


@pytest.fixture(scope="module")
def observed_dns():
    return capture.capture_dns(*capture.dns_case())


@pytest.fixture(scope="module")
def golden_dns():
    with np.load(GOLDEN / "dns.npz") as data:
        return {k: data[k] for k in data.files}


@pytest.mark.parametrize("name", ["energy", "dissipation", "u", "w", "b", "p"])
def test_dns_trajectory(observed_dns, golden_dns, name):
    want = golden_dns[name]
    assert observed_dns[name].shape == want.shape
    err = np.abs(observed_dns[name] - want).max()
    assert err <= RTOL_DNS * np.abs(want).max(), (name, err / np.abs(want).max())


def test_dns_projection_loss(observed_dns, golden_dns):
    want = golden_dns["proj_loss"]
    err = np.abs(observed_dns["proj_loss"] - want).max()
    assert err <= ATOL_PROJ_LOSS * golden_dns["energy"][0], err


@pytest.fixture(scope="module")
def observed_lift():
    return capture.capture_lift()


@pytest.fixture(scope="module")
def golden_lift():
    with np.load(GOLDEN / "lift.npz") as data:
        return {k: data[k] for k in data.files}


@pytest.mark.parametrize("name", [f"{r.name}_{f}" for r in capture.LIFT_REGIMES
                                  for f in ("mu", "cu", "cw", "cb")]
                         + ["NON_OSCILLATING_leftover"])
def test_lift(observed_lift, golden_lift, name):
    want = golden_lift[name]
    assert observed_lift[name].shape == want.shape
    err = np.abs(observed_lift[name] - want).max()
    assert err <= RTOL_LIFT * np.abs(want).max(), (name, err / np.abs(want).max())


def test_lift_keys(observed_lift, golden_lift):
    assert sorted(observed_lift) == sorted(golden_lift)
