"""The theta-products values, pinned.

For every pair of the benchmark's theta-products population at seeds 1 and 7,
the sha256 of the ``window_dump`` of the product of the two first basis
thetas at (W=3, N=40), as ``perfbench/workloads.py`` digests it.  The pairs
are drawn by that module itself, imported by path, so they are the very
pairs the benchmark multiplies.  A change to a product value must update
``data/product_digests.json`` in the open.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from qtheta import theta_dim_basis

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = json.loads((ROOT / "tests" / "data" / "product_digests.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("seed", [1, 7])
def test_theta_products_match_recorded_digests(seed):
    wl = _workloads()
    got = {}
    for i, (l1, l2) in enumerate(wl.ProductInputs(seed).pairs):
        b1, b2 = (theta_dim_basis(lm, wl.WINDOW, wl.ORDER).basis[0] for lm in (l1, l2))
        table = b1.mul(b2).window_dump(wl.WINDOW, wl.ORDER)
        got[f"seed={seed}/pair{i}"] = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
    want = {k: v for k, v in DIGESTS.items() if k.startswith(f"seed={seed}/")}
    assert len(want) == wl.POPULATION == 24 and (wl.WINDOW, wl.ORDER) == (3, 40)
    assert got == want
