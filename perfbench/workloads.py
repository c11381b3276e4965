"""The benchmark's workloads: inputs, one timed repetition, and its exactness gate.

A repetition is what one fresh worker process times.  Every repetition
returns a list of requests -- one per call a user waits on -- each with its
own time, the lattice cells it compared exactly, and its outcome:

* ``"ok"``: the result was checked and is exact;
* ``"refused"``: the engine declined with ``NotMultipliable`` (the
  enumeration box cap); a resource-limit outcome, counted, never re-drawn;
* ``"failed"``: a check did not hold or an unexpected error was raised.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

# name -> (field order, [(identity, window, order, specs, cells)])
VERIFY_WORKLOADS = {
    "yb-e026": (1, [("E026", 3, 12, 1, 2401)]),
    "weinstein-e313": (1, [("E313", 4, 40, 10, 65610)]),
    "suite-cyclo5": (
        5,
        [
            ("E012", 8, 80, 5, 85),
            ("E016", 10, 40, 1, 21),
            ("E023", 4, 16, 1, 81),
            ("E024", 4, 16, 1, 81),
            ("E025", 5, 25, 1, 121),
            ("E332", 5, 25, 6, 726),
        ],
    ),
}

PRODUCTS = "theta-products"
WORKLOADS = list(VERIFY_WORKLOADS) + [PRODUCTS]

# theta-products: window radius and u-order of every product check, and the
# size of the pair population one repetition processes
WINDOW, ORDER, POPULATION = 3, 40, 24


class Request:
    __slots__ = ("label", "seconds", "cells", "ops", "outcome", "detail", "digest")

    def __init__(self, label, seconds, cells, ops, outcome, detail="", digest=None):
        self.label = label
        self.seconds = seconds
        self.cells = cells
        self.ops = ops
        self.outcome = outcome
        self.detail = detail
        self.digest = digest

    def to_json(self):
        return {k: getattr(self, k) for k in self.__slots__}


# -- verify workloads ------------------------------------------------------------


class VerifyInputs:
    def __init__(self, name):
        from qtheta import CycloField

        m, self.identities = VERIFY_WORKLOADS[name]
        self.field = CycloField(m)


def run_verify(inputs: VerifyInputs):
    """All identities of the workload in registry order, one process."""
    from qtheta import verify_named

    out = []
    for ident, window, order, specs, cells in inputs.identities:
        t0 = time.perf_counter()
        try:
            rep = verify_named(ident, inputs.field, window, order)
        except Exception as exc:  # noqa: BLE001 -- any raise is a failed request
            out.append(Request(ident, time.perf_counter() - t0, 0, specs, "failed", repr(exc)))
            continue
        dt = time.perf_counter() - t0
        if rep["status"] != "pass":
            out.append(Request(ident, dt, 0, specs, "failed", json.dumps(rep, sort_keys=True)))
        elif rep["cells_checked"] != cells:
            detail = f"cells_checked {rep['cells_checked']} != {cells}"
            out.append(Request(ident, dt, 0, specs, "failed", detail))
        else:
            out.append(Request(ident, dt, cells, specs, "ok"))
    return out


# -- theta products ------------------------------------------------------------


def _unimodular(rng, n):
    from qtheta.intlinalg import identity, mat

    m = [list(r) for r in identity(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.randint(-2, 2)
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return mat(m)


def ample_pair(lattice_rng, sign_rng, field, n=2):
    """Two composable ample multipliers over the trivial pairing on Z^n.

    Modelled on the random ample pair of the acceptance suite.
    ``lattice_rng`` draws the period basis change F and the valuation form
    S = 2 R^T R + 4 I, which fix every enumeration and so the cost.
    ``sign_rng`` draws one sign character chi of the period lattice, shared
    by both multipliers: it multiplies the product's coefficient at each
    cell by chi of that cell, so the digests change with it but no
    enumeration, cancellation or cost does.
    """
    from qtheta.heisenberg import HeisElement
    from qtheta.intlinalg import mat, mat_inverse_unimodular, mat_mul, transpose
    from qtheta.multiplier import multiplier_new
    from qtheta.scalars import UnitMonomial
    from qtheta.torus import QuantParam, TorusPoint

    f = _unimodular(lattice_rng, n)
    r = [[lattice_rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    s = [
        [2 * sum(r[k][i] * r[k][j] for k in range(n)) + (4 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    x = mat_mul(transpose(mat_inverse_unimodular(f)), mat(s))  # exact: F is unimodular
    p = QuantParam.trivial(field, n)

    def build(signs):
        images = []
        for i in range(n):
            c = UnitMonomial(-field.one() if signs[i] else field.one(), s[i][i])
            xpt = TorusPoint(tuple(UnitMonomial(field.one(), x[k][i]) for k in range(n)))
            images.append(HeisElement(p, c, xpt, tuple(f[k][i] for k in range(n))))
        return multiplier_new(p, images)

    signs = [sign_rng.randint(0, 1) for _ in range(n)]
    return build(signs), build(signs)


class ProductInputs:
    """The pair population: fixed lattice data, sign characters from the seed."""

    def __init__(self, seed, size=POPULATION):
        from qtheta import CycloField

        self.field = CycloField(1)
        lattice_rng = random.Random(0)
        sign_rng = random.Random(seed)
        self.pairs = [ample_pair(lattice_rng, sign_rng, self.field) for _ in range(size)]


def product_request(field, l1, l2, window, order):
    """Multiply the first basis thetas of a pair and check the product.

    Returns (cells compared, digest of the product's coefficient table).
    Raises ``AssertionError`` when a check fails.
    """
    from qtheta import (
        SmallHeisElement,
        UnitMonomial,
        act_on_theta,
        compose_multipliers,
        group_structure,
        theta_dim_basis,
        theta_membership,
    )

    composed = compose_multipliers(l2, l1)
    tb1 = theta_dim_basis(l1, window, order)
    tb2 = theta_dim_basis(l2, window, order)
    product = tb1.basis[0].mul(tb2.basis[0])
    table = product.window_dump(window, order)
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
    cells = product.window_cells(window)
    if not theta_membership(composed, product, cells, order):
        raise AssertionError("product is not in the composed theta space")
    checked = len(cells) * len(composed.images)
    struct = group_structure(composed)
    basis = theta_dim_basis(composed, window, order)
    if basis.dim != composed.index():
        raise AssertionError(f"theta dimension {basis.dim} != index {composed.index()}")
    one = UnitMonomial.one(field)
    zero = (0,) * composed.rank
    for gen in struct.kappa_generators:
        # act_on_theta re-expands every acted theta on the window and raises
        # NotInNormalizer when the expansion does not match
        act_on_theta(composed, SmallHeisElement(one, gen, zero), basis, window, order)
        checked += len(cells) * basis.dim
    return checked, digest


def run_products(inputs: ProductInputs):
    from qtheta.errors import NotMultipliable

    out = []
    for i, (l1, l2) in enumerate(inputs.pairs):
        t0 = time.perf_counter()
        try:
            cells, digest = product_request(inputs.field, l1, l2, WINDOW, ORDER)
        except NotMultipliable as exc:
            out.append(Request(f"pair{i}", time.perf_counter() - t0, 0, 1, "refused", str(exc)))
        except Exception as exc:  # noqa: BLE001 -- any other raise is a failed request
            out.append(Request(f"pair{i}", time.perf_counter() - t0, 0, 1, "failed", repr(exc)))
        else:
            out.append(Request(f"pair{i}", time.perf_counter() - t0, cells, 1, "ok", digest=digest))
    return out


# -- entry points for the worker ----------------------------------------------------


def make_inputs(name, seed):
    if name == PRODUCTS:
        return ProductInputs(seed)
    return VerifyInputs(name)


def run(name, inputs):
    if name == PRODUCTS:
        return run_products(inputs)
    return run_verify(inputs)


def self_test_calls():
    """Tiny inputs that reach every traced layer, for the wrapper self-test."""
    from qtheta import CycloField, verify_named

    field = CycloField(1)
    verify_named("E026", field, 1, 4)
    verify_named("E313", field, 1, 8)
    l1, l2 = ample_pair(_Zero(), _Zero(), field)  # F = I, S = 4 I, trivial signs
    product_request(field, l1, l2, 1, 8)


class _Zero:
    """Stand-in rng that always draws 0 (or the first index)."""

    def randrange(self, n):
        return 0

    def randint(self, a, b):
        return 0
