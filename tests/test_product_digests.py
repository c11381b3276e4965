"""The theta-products values, pinned and checked independently.

For every pair of the benchmark's theta-products population at seeds 1 and 7,
the sha256 of the ``window_dump`` of the product of the two first basis
thetas at (W=3, N=40), as ``perfbench/workloads.py`` digests it.  The pairs
are drawn by that module itself, imported by path, so they are the very
pairs the benchmark multiplies.  A change to a product value must update
``data/product_digests.json`` in the open.  The products are also compared,
at three cells each, with a reference summed from the two thetas' own
coefficient tables.
"""

import hashlib
import importlib.util
import json
import pathlib

import itertools

import pytest
from oracles import word_coeff_reference

from qtheta import compose_multipliers, heis_act, series, theta_dim_basis

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


def _reference(b1, b2, h, order):
    """The coefficient at h of b1 b2 from the two thetas' own tables: b1's
    nonzero values on a box about the origin, b2's at h less each of their
    points, summed by :func:`word_coeff_reference`, the box grown by half
    until the sum stops changing."""
    prev, r = None, 3
    while True:
        box = list(itertools.product(range(-r, r + 1), repeat=b1.param.rank))
        t1 = {p: v for p, v in b1.coeffs(box, order + 8).items() if not v.is_zero()}
        t2 = {q: v for q, v in b2.coeffs([tuple(a - b for a, b in zip(h, p)) for p in t1], order + 8).items()
              if not v.is_zero()}
        ref = word_coeff_reference(b1.param, [t1, t2], h, order)
        if ref == prev:
            return ref
        prev, r = ref, r + r // 2 + 1


def _no_walk(*args, **kwargs):
    raise AssertionError("the reference enumerates nothing")


@pytest.mark.parametrize("seed", [1, 7])
def test_theta_products_match_a_reference_from_the_thetas_tables(seed, monkeypatch):
    # at a coset rep of the composed multiplier and two cells off them, each
    # with a nonzero coefficient; a last case multiplies the first basis
    # theta of an index-4 multiplier by itself, so that a product of two
    # different basis thetas would differ from it
    wl = _workloads()
    pairs = wl.ProductInputs(seed).pairs
    cases = [(l1, l2, *(theta_dim_basis(lm, wl.WINDOW, wl.ORDER).basis[0] for lm in (l1, l2))) for l1, l2 in pairs]
    big = compose_multipliers(*pairs[7])
    basis = theta_dim_basis(big, wl.WINDOW, wl.ORDER)
    assert basis.dim == 4
    cases.append((big, big, basis.basis[0], basis.basis[0]))
    for l1, l2, b1, b2 in cases:
        product = b1.mul(b2)
        table = product.coeffs(product.window_cells(wl.WINDOW), wl.ORDER)
        reps = set(compose_multipliers(l2, l1).quotient().coset_reps)
        nonzero = [h for h, v in sorted(table.items()) if not v.is_zero()]
        cells = [h for h in nonzero if h in reps][:1]
        cells += [h for h in nonzero if h not in reps][: 3 - len(cells)]
        assert len(cells) == 3
        with monkeypatch.context() as mp:
            mp.setattr(series, "enumerate_sublevel", _no_walk)
            assert [table[h] for h in cells] == [_reference(b1, b2, h, wl.ORDER) for h in cells]


@pytest.mark.parametrize("seed", [1, 7])
def test_translation_proves_every_theta_membership_generator(seed):
    # theta_membership proves each pair's product invariant under each of the
    # composed multiplier's generator images by translating its summation
    # lattice: the u-form is positive definite on the product's kernel, so
    # all 48 are proved and no window pass is left to compare
    wl = _workloads()
    proved = []
    for l1, l2 in wl.ProductInputs(seed).pairs:
        b1, b2 = (theta_dim_basis(lm, wl.WINDOW, wl.ORDER).basis[0] for lm in (l1, l2))
        product = b1.mul(b2)
        assert product._layout().solver.kernel
        for img in compose_multipliers(l2, l1).images:
            c = series._prove_by_translation(heis_act(img, product), product)
            proved.append(c is not None and c.is_one())
    assert len(proved) == 48 and all(proved)
