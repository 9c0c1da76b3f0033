import math
import re

import pytest

from extraction_lab.harness import bounds, checks
from extraction_lab.harness.bounds import (
    BOUND_IDS,
    CATALOG,
    base_exponent,
    bound_value,
    bound_values,
)


def params(n, m, r, k1, k2):
    return {"n": n, "m": m, "r": r, "k1": k1, "k2": k2}


def base_eps(n, m, r, k1, k2):
    return 2.0 ** (-(k1 + k2 + 2 - n - r - m) / 2.0)


def test_catalog_is_complete():
    assert BOUND_IDS == tuple(sorted(
        ["B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9", "B10", "B11"]))


def test_anchor_values():
    p = params(4, 1, 0, 4, 4)
    assert abs(bound_value("B1", p) - 2 ** -2.5) < 1e-12
    assert abs(bound_value("B1", p) - 0.17677669529663687) < 1e-12
    assert abs(bound_value("B7", p) - 2 ** -2.5) < 1e-12
    assert abs(bound_value("B2", p) - 3 * 2 ** (-5 / 4)) < 1e-12


def test_b2_is_three_times_quarter_exponent(rng):
    for _ in range(100):
        n = int(rng.integers(2, 16))
        m = int(rng.integers(1, min(4, n) + 1))
        r = int(rng.integers(0, min(m, n - 1) + 1))
        k1, k2 = rng.uniform(0, n, size=2)
        p = params(n, m, r, k1, k2)
        expo = base_exponent(n, m, r, k1, k2)
        assert abs(bound_value("B2", p) - 3 * 2 ** (-expo / 4)) < 1e-12
        assert bound_value("B10", p) == bound_value("B2", p)
        assert bound_value("B4", p) == bound_value("B3", p) == bound_value("B8", p)


def _rand_params(rng):
    n = int(rng.integers(2, 20))
    m = int(rng.integers(1, min(6, n) + 1))
    r = int(rng.integers(0, min(m, n - 1) + 1))
    k1, k2 = (float(v) for v in rng.uniform(0, n, size=2))
    return n, m, r, k1, k2


def test_b9_inversion_consistency(rng):
    # B9 = 2 eps' where the plain statement holds at (k1, k2 - log(1/eps')).
    for _ in range(200):
        n, m, r, k1, k2 = _rand_params(rng)
        eps_prime = bound_value("B9", params(n, m, r, k1, k2)) / 2.0
        offset = math.log2(1.0 / eps_prime)
        assert abs(eps_prime - base_eps(n, m, r, k1, k2 - offset)) < 1e-9 * eps_prime


def test_b4_inversion_consistency(rng):
    # B4 = sqrt(2^m eps') with the plain statement at (k1, k2 - log(1/eps')).
    for _ in range(200):
        n, m, r, k1, k2 = _rand_params(rng)
        val = bound_value("B4", params(n, m, r, k1, k2))
        eps_prime = val ** 2 / 2 ** m
        offset = math.log2(1.0 / eps_prime)
        assert abs(eps_prime - base_eps(n, m, r, k1, k2 - offset)) < 1e-9 * eps_prime


def test_b3_is_b4_through_b9(rng):
    # Lifting the classical-product statement with sqrt(2^{m-1} eps_cl)
    # reproduces the one-shot lift exactly.
    for _ in range(200):
        n, m, r, k1, k2 = _rand_params(rng)
        p = params(n, m, r, k1, k2)
        lifted = math.sqrt(2 ** (m - 1) * bound_value("B9", p))
        assert abs(lifted - bound_value("B3", p)) < 1e-12 * max(lifted, 1.0)


def test_b10_inversion_consistency(rng):
    # B10 = 3 eps' with the plain statement at (k1 - L, k2 - L), L = log(1/eps').
    for _ in range(200):
        n, m, r, k1, k2 = _rand_params(rng)
        eps_prime = bound_value("B10", params(n, m, r, k1, k2)) / 3.0
        off = math.log2(1.0 / eps_prime)
        assert abs(eps_prime - base_eps(n, m, r, k1 - off, k2 - off)) < 1e-9 * eps_prime


def test_b11_inversion_consistency(rng):
    # B11 = sqrt(3 2^{m-2} eps') with the plain statement at (k1 - L, k2 - L).
    for _ in range(200):
        n, m, r, k1, k2 = _rand_params(rng)
        val = bound_value("B11", params(n, m, r, k1, k2))
        eps_prime = val ** 2 / (3 * 2 ** (m - 2))
        off = math.log2(1.0 / eps_prime)
        assert abs(eps_prime - base_eps(n, m, r, k1 - off, k2 - off)) < 1e-9 * eps_prime


def test_b5_inversion_consistency(rng):
    # B5 = 3 sqrt(2^m eps') with entropy offsets
    # k1 -> k1' + log(1/(2^m eps'))/2 and k2 -> k2' + same + log(1/eps').
    for _ in range(200):
        n, m, r, k1, k2 = _rand_params(rng)
        val = bound_value("B5", params(n, m, r, k1, k2))
        eps_prime = (val / 3.0) ** 2 / 2 ** m
        half = 0.5 * math.log2(1.0 / (2 ** m * eps_prime))
        off = math.log2(1.0 / eps_prime)
        assert abs(eps_prime - base_eps(n, m, r, k1 - half, k2 - half - off)) \
            < 1e-9 * eps_prime


def test_b6_formula(rng):
    for _ in range(100):
        n, m, r, k1, k2 = _rand_params(rng)
        val = bound_value("B6", params(n, m, r, k1, k2))
        assert abs(val - 2 ** (-(k1 + k2 + 3 - n - r - 2 * m) / 4)) < 1e-12 * max(val, 1)


def test_b7_requires_single_bit():
    assert abs(bound_value("B7", params(4, 1, 0, 3, 3))
               - 2 ** (-(1 + 6 - 4) / 2)) < 1e-12
    with pytest.raises(ValueError):
        bound_value("B7", params(4, 2, 0, 3, 3))


def test_bounds_monotone_in_entropy(rng):
    for bid in BOUND_IDS:
        for _ in range(50):
            n = int(rng.integers(3, 16))
            m = 1 if bid == "B7" else int(rng.integers(1, min(4, n) + 1))
            r = 0 if bid == "B7" else int(rng.integers(0, min(m, n - 1) + 1))
            k1, k2 = sorted(float(v) for v in rng.uniform(0, n, size=2))
            lo = bound_value(bid, params(n, m, r, k1, 0.5 * k1))
            hi = bound_value(bid, params(n, m, r, k2, 0.5 * k1))
            assert hi <= lo + 1e-12


def test_ordering_in_regime(rng):
    # Where the exact bound is nontrivial it beats both generic lifts.
    done = 0
    while done < 1000:
        n, m, r, k1, k2 = _rand_params(rng)
        p = params(n, m, r, k1, k2)
        if base_exponent(n, m, r, k1, k2) < 0:
            continue
        b1 = bound_value("B1", p)
        assert b1 <= bound_value("B6", p) + 1e-12
        assert b1 <= bound_value("B4", p) + 1e-12
        done += 1


def test_b7_is_b1_of_the_identity_family(rng):
    # The inner product is the deor extractor with m = 1, r = 0, so its
    # bound 2^(-(1+k1+k2-n)/2) is B1's 2^(-E/2) there.  B7 is B1's catalog
    # row held to m = 1, so the two agree bit for bit, at every r.
    for _ in range(200):
        n = int(rng.integers(1, 16))
        k1, k2 = rng.uniform(0, n, size=2)
        p = params(n, 1, int(rng.integers(0, n)), k1, k2)
        assert bound_value("B7", p) == bound_value("B1", p)


def test_validation_errors():
    with pytest.raises(KeyError):
        bound_value("B99", params(4, 1, 0, 2, 2))
    with pytest.raises(ValueError):
        bound_value("B1", params(4, 1, 0, 5, 2))      # k1 > n
    with pytest.raises(ValueError):
        bound_value("B1", params(4, 1, 4, 2, 2))      # r >= n
    with pytest.raises(ValueError):
        bound_value("B1", params(0, 1, 0, 0, 0))


# The catalog written out as one closed form per bound, apart from the table:
# the oracle of CATALOG and bound_value.  B7's form ignores r, so it is
# compared at r = 0, the identity family's deficiency.
_e = base_exponent

CLOSED_FORMS = {
    "B1": lambda n, m, r, k1, k2: 2.0 ** (-_e(n, m, r, k1, k2) / 2.0),
    "B2": lambda n, m, r, k1, k2: 3.0 * 2.0 ** (-_e(n, m, r, k1, k2) / 4.0),
    "B3": lambda n, m, r, k1, k2: 2.0 ** (-(_e(n, m, r, k1, k2) - 3.0 * m) / 6.0),
    "B5": lambda n, m, r, k1, k2: 3.0 * 2.0 ** (-(_e(n, m, r, k1, k2) - 3.0 * m) / 8.0),
    "B6": lambda n, m, r, k1, k2: 2.0 ** (-(_e(n, m, r, k1, k2) + 1.0 - m) / 4.0),
    "B7": lambda n, m, r, k1, k2: 2.0 ** (-(1.0 + k1 + k2 - n) / 2.0),
    "B9": lambda n, m, r, k1, k2: 2.0 ** (1.0 - _e(n, m, r, k1, k2) / 3.0),
    "B11": lambda n, m, r, k1, k2: math.sqrt(3.0) * 2.0 ** (
        -(_e(n, m, r, k1, k2) + 8.0 - 4.0 * m) / 8.0),
}
CLOSED_FORMS.update(B4=CLOSED_FORMS["B3"], B8=CLOSED_FORMS["B3"], B10=CLOSED_FORMS["B2"])

# Integer and non-integer entropies; k above n is skipped.
GRID_KS = (0.0, 0.3, 1.0, 1.5, 2.0, 2.71828, 3.0, 3.999, 4.0, 5.25, 6.0)


def _grid(single_bit=False):
    for n in range(1, 7):
        for m in (1,) if single_bit else range(1, min(n, 4) + 1):
            for r in (0,) if single_bit else range(n):
                for k1 in (k for k in GRID_KS if k <= n):
                    for k2 in (k for k in GRID_KS if k <= n):
                        yield n, m, r, k1, k2


def test_catalog_is_the_closed_forms_exactly():
    # Each row does the old closed form's float operations (E + 0.0 is E,
    # 1.0·x is x), so the values are equal, not merely close.
    assert set(CLOSED_FORMS) == set(BOUND_IDS)
    for bid in sorted(set(BOUND_IDS) - {"B7", "B9"}):
        for args in _grid():
            assert bound_value(bid, params(*args)) == CLOSED_FORMS[bid](*args), (bid, args)


def test_b7_and_b9_rows_match_their_closed_forms():
    # Their float routes differ: B7 is B1's row, which forms k1 + k2 + 2 - n - r - m
    # where the closed form forms 1 + k1 + k2 - n, and B9 multiplies 2^(-E/3)
    # by 2 where the closed form raises 2 to 1 - E/3.  At integer k both routes
    # are exact for B7; elsewhere they may round apart in the last bits.
    for args in _grid(single_bit=True):
        got, want = bound_value("B7", params(*args)), CLOSED_FORMS["B7"](*args)
        if float(args[3]).is_integer() and float(args[4]).is_integer():
            assert got == want, args
        assert abs(got - want) <= 1e-12 * want, args
    for args in _grid():
        got, want = bound_value("B9", params(*args)), CLOSED_FORMS["B9"](*args)
        assert abs(got - want) <= 1e-12 * want, args


def test_single_bit_rule_reads_the_catalog(monkeypatch):
    # No bound id is named in resolve_params: a row with only_m = 1 is refused
    # wherever the check can draw m > 1, and accepted where it cannot.
    monkeypatch.setitem(bounds.CATALOG, "B6", bounds.CATALOG["B6"]._replace(only_m=1))
    with pytest.raises(ValueError, match="bound 'B6' is for single-bit output, but the check "
                                         "draws m up to 3"):
        checks.resolve_params("b1-quantum-product", {})
    assert checks.resolve_params("b1-quantum-product", {"m_max": 1})["bounds"][1] == "B6"
    monkeypatch.setitem(bounds.CATALOG, "B7", bounds.CATALOG["B7"]._replace(only_m=None))
    assert checks.resolve_params("b2-markov", {"bounds": ["B7"]})["bounds"] == ("B7",)


def _ref_bound_value(bound_id, params):
    # The oracle for the batch: one bound at a time, the params read and
    # validated on every call.
    if bound_id not in CATALOG:
        raise KeyError(f"unknown bound id {bound_id!r}; known: {', '.join(BOUND_IDS)}")
    n, m, r = int(params["n"]), int(params["m"]), int(params["r"])
    k1, k2 = float(params["k1"]), float(params["k2"])
    bounds._validate(n, m, r, k1, k2)
    coef, a, b, q, only_m = CATALOG[bound_id]
    if only_m is not None and m != only_m:
        raise ValueError(f"bound {bound_id!r} applies to m = {only_m} output only, got m={m}")
    return float(coef * 2.0 ** (-((base_exponent(n, m, r, k1, k2) + a) - b * m) / q))


def test_batch_is_the_per_bound_evaluation_bit_for_bit():
    # Every catalog row a case's m admits, at the grid and at the ends of the
    # entropy range's tolerance.
    edges = [(n, m, r, k1, k2) for n in (1, 2, 6) for m in range(1, n + 1) for r in (0, n - 1)
             for k1, k2 in ((-1e-9, n + 1e-9), (n + 1e-9, -1e-9))]
    for args in [*_grid(), *edges]:
        p = params(*args)
        ids = [b for b in BOUND_IDS if CATALOG[b].only_m in (None, args[1])]
        got = bound_values(ids, p)
        assert got == [_ref_bound_value(b, p) for b in ids], args
        assert got == [bound_value(b, p) for b in ids], args


@pytest.mark.parametrize("ids, p", [
    (["B1", "B99"], params(4, 1, 0, 2, 2)),
    (["B99"], params(0, 1, 0, 0, 0)),
    (["B1", "B7"], params(4, 2, 0, 3, 3)),
    (["B1", "B6"], params(4, 1, 0, 5, 2)),
    (["B1"], params(4, 1, 4, 2, 2)),
    (["B7"], params(0, 1, 0, 0, 0)),
    (["B7", "B99"], params(4, 2, 0, 3, 3)),
    (["B1", "B99"], params(4, 1, 4, 2, 2)),
])
def test_batch_refuses_as_the_per_bound_evaluation(ids, p):
    # The batch refuses with the first refusal its bounds met one at a time;
    # bound_value is its batch of one.
    with pytest.raises((KeyError, ValueError)) as want:
        for b in ids:
            _ref_bound_value(b, p)
    with pytest.raises(want.type, match=re.escape(str(want.value.args[0]))):
        bound_values(ids, p)
    if len(ids) == 1:
        with pytest.raises(want.type, match=re.escape(str(want.value.args[0]))):
            bound_value(ids[0], p)
