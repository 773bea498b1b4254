import json

import numpy as np
import pytest

from oracles import radical_by_elements, socle_and_loewy
from semidual.algebra import algebra_from_monomial_quotient, parse_polynomial, radical, ring_report
from semidual.errors import InputError, NotCofiniteError, ParseError
from semidual.linalg import Field, Mat

GF2 = Field(2)
GF3 = Field(3)
GF5 = Field(5)


def ring_r1():
    return algebra_from_monomial_quotient(GF2, ["x", "y"], ["x^2", "x*y", "y^2"], name="R1")


def ring_r2():
    return algebra_from_monomial_quotient(GF3, ["x"], ["x^3"], name="R2")


def ring_r3():
    return algebra_from_monomial_quotient(GF2, ["x", "y"], ["x^2", "y^2"], name="R3")


def ring_r4():
    return algebra_from_monomial_quotient(
        GF5, ["x", "y", "z"],
        ["x^2", "y^2", "z^2", "x*y", "x*z", "y*z"], name="R4")


def _cube(a):
    """T(a^3) = GF(3)[x,y,z]/(x^a, y^a, z^a)."""
    return algebra_from_monomial_quotient(GF3, ["x", "y", "z"], [f"{v}^{a}" for v in "xyz"],
                                          name=f"T{a ** 3}")


def test_r1_basis_and_hand_multiplication():
    R = ring_r1()
    assert R.dim == 3
    assert R.labels == ["1", "x", "y"]
    one = R.one()
    x = R.element_from_string("x")
    y = R.element_from_string("y")
    # hand multiplications: 1*x = x, x*x = 0, x*y = 0, y*y = 0
    assert np.array_equal(R.mul(one, x), x)
    assert not R.mul(x, x).any()
    assert not R.mul(x, y).any()
    assert not R.mul(y, y).any()


def test_r2_powers():
    R = ring_r2()
    assert R.labels == ["1", "x", "x^2"]
    x = R.element_from_string("x")
    x2 = R.mul(x, x)
    assert np.array_equal(x2, R.element_from_string("x^2"))
    assert not R.mul(x, x2).any()  # x^3 = 0


def test_not_cofinite_names_variable():
    with pytest.raises(NotCofiniteError) as exc:
        algebra_from_monomial_quotient(GF2, ["x", "y"], ["x^2"])
    assert exc.value.variable == "y"
    assert "y" in str(exc.value)


def test_non_monomial_relation_rejected():
    with pytest.raises(InputError):
        algebra_from_monomial_quotient(GF2, ["x"], ["x^2 + x"])
    with pytest.raises(InputError):
        algebra_from_monomial_quotient(GF2, ["x"], ["1"])


def test_monomial_basis_order_is_degree_then_x_before_y():
    R = ring_r3()
    assert R.labels == ["1", "x", "y", "x*y"]
    R4 = ring_r4()
    assert R4.labels == ["1", "x", "y", "z"]


def test_radical_elements_are_nilpotent():
    for R in (ring_r1(), ring_r2(), ring_r3(), ring_r4()):
        rad = radical(R)
        assert rad.cols == R.dim - 1
        for j in range(rad.cols):
            v = rad.data[:, j]
            acc = v
            for _ in range(R.dim):
                acc = R.mul(acc, v)
            assert not acc.any()
        # the unit is not nilpotent, so it is outside the radical span
        from semidual.linalg import rank
        aug = Mat(R.field, np.hstack([rad.data, R.one().reshape(-1, 1)]))
        assert rank(aug) == rad.cols + 1


def test_batched_frobenius_radical_matches_per_element_oracle():
    from semidual.modules import clear_caches

    big = Field(2 ** 31 - 1)
    rings = [ring_r1(), ring_r2(), ring_r3(), ring_r4(), _cube(3),
             algebra_from_monomial_quotient(big, ["x", "y"], ["x^3", "x*y^2", "y^4"])]
    clear_caches()
    for R in rings:
        want = radical_by_elements(R)
        got = radical(R).data
        assert got.shape == want.shape and np.array_equal(got, want), R.name


def test_reduce_monomial_matches_divisibility_scan():
    from itertools import product

    from semidual.corpus import corpus_rings

    for R in corpus_rings().values():
        data = R.monomial_data
        bounds = [max(e[v] for e in data.basis_exponents) + 1
                  for v in range(len(data.variables))]
        for exps in product(*[range(2 * b + 1) for b in bounds]):
            in_ideal = any(all(r <= m for r, m in zip(rel, exps))
                           for rel in data.relations)
            want = None if in_ideal else data.index[exps]
            assert data.reduce_monomial(exps) == want, (R.name, exps)


def test_ring_reports_match_hand_values():
    rep1 = ring_report(ring_r1())
    assert rep1.is_local and not rep1.is_gorenstein
    assert rep1.socle_dim == 2          # socle = (x, y) by hand: a*x = a0 x
    assert rep1.loewy_length == 2
    rep2 = ring_report(ring_r2())
    assert rep2.is_local and rep2.is_gorenstein
    assert rep2.socle_dim == 1          # socle = (x^2)
    assert rep2.loewy_length == 3
    rep3 = ring_report(ring_r3())
    assert rep3.is_gorenstein
    assert rep3.socle_dim == 1          # socle = (x*y)
    assert rep3.loewy_length == 3
    rep4 = ring_report(ring_r4())
    assert rep4.is_local and not rep4.is_gorenstein
    assert rep4.socle_dim == 3
    assert rep4.loewy_length == 2


def test_field_itself_reports():
    R = algebra_from_monomial_quotient(GF5, [], [])
    rep = ring_report(R)
    assert R.dim == 1
    assert rep.is_local and rep.is_gorenstein
    assert rep.loewy_length == 1
    assert rep.socle_dim == 1


def test_element_from_string_reduces():
    R = ring_r1()
    assert np.array_equal(R.element_from_string("x^2 + x"), R.element_from_string("x"))
    assert not R.element_from_string("x*y").any()
    assert R.element_to_string(R.element_from_string("1 + y")) == "1 + y"
    assert R.element_to_string(np.zeros(3, dtype=np.int64)) == "0"


def test_parse_polynomial_forms():
    terms = parse_polynomial("2*x*y + 1 - x^2", ["x", "y"])
    assert terms == [(2, (1, 1)), (1, (0, 0)), (-1, (2, 0))]
    assert parse_polynomial("x*x", ["x"]) == [(1, (2,))]
    assert parse_polynomial("3", ["x"]) == [(3, (0,))]
    assert parse_polynomial("- x", ["x"]) == [(-1, (1,))]


def test_parse_polynomial_errors_carry_column():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x + w", ["x", "y"])
    assert exc.value.column == 5
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x^", ["x"])
    assert exc.value.column == 3
    with pytest.raises(ParseError):
        parse_polynomial("", ["x"])
    with pytest.raises(ParseError):
        parse_polynomial("x )", ["x"])


def test_mult_matrix_agrees_with_mul():
    R = ring_r4()
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.integers(0, 5, size=4)
        v = rng.integers(0, 5, size=4)
        assert np.array_equal((R.mult_matrix(u) @ v) % 5, R.mul(u, v))


def _truncated_product(u, v, p):
    """Python-int product of two coefficient vectors (low degree first),
    with x^k = 0 for k >= len(u)."""
    n = len(u)
    prod = [0] * n
    for i, a in enumerate(u):
        for j, b in enumerate(v[:n - i]):
            prod[i + j] += int(a) * int(b)
    return [c % p for c in prod]


@pytest.mark.parametrize("p", [2, 3, 65521, 2 ** 31 - 1])
def test_mul_and_mult_matrix_exact_for_every_prime(p):
    rng = np.random.default_rng(p % 997)
    R = algebra_from_monomial_quotient(Field(p), ["x"], ["x^3"])
    pairs = [rng.integers(0, p, size=(2, 3)) for _ in range(50)]
    # at p = 2^31 - 1 over x^3 = 0 this pair is [4, 13, 28]
    pairs.append(np.array([[p - 1, p - 2, p - 3], [p - 4, p - 5, p - 6]]) % p)
    for u, v in pairs:
        assert R.mul(u, v).tolist() == _truncated_product(u, v, p)
        M = R.mult_matrix(u)
        for j in range(3):
            assert M[:, j].tolist() == _truncated_product(u, np.eye(3, dtype=np.int64)[j], p)


def test_ring_report_memoised_frozen_and_cleared():
    from dataclasses import FrozenInstanceError

    from semidual.modules import clear_caches

    _report_cache = ring_report.store
    R = ring_r3()
    clear_caches()
    rep = ring_report(R)
    assert ring_report(ring_r3()) is rep       # same fingerprint, one report
    assert _report_cache
    with pytest.raises(FrozenInstanceError):
        rep.socle_dim = 2
    clear_caches()
    assert not _report_cache
    again = ring_report(R)
    assert again is not rep and again == rep


def test_fingerprint_distinguishes():
    assert ring_r1().fingerprint == ring_r1().fingerprint
    assert ring_r1().fingerprint != ring_r3().fingerprint


# -- ring_report of a monomial quotient, read off the monomial data ---------------


def _report_rings():
    t27 = _cube(3)
    big = algebra_from_monomial_quotient(Field(2 ** 31 - 1), ["x", "y"],
                                         ["x^3", "x*y^2", "y^3"], name="Q")
    field = algebra_from_monomial_quotient(GF5, ["x"], ["x"], name="F5")
    return [ring_r1(), ring_r2(), ring_r3(), ring_r4(), t27, big, field]


def test_monomial_ring_report_equals_computed_route(monkeypatch):
    """Every RingReport field of a monomial quotient, read off its monomial
    data with no product and no echelon, equals the computed route of the
    oracles: the radical basis is the Frobenius kernel, and the socle
    dimension and Loewy length are those of products with it."""
    import semidual.algebra as al
    import semidual.linalg as la
    from semidual.memo import clear_caches
    calls = []
    real_mul, real_echelon = al._mul_arrays, la._echelon
    monkeypatch.setattr(al, "_mul_arrays", lambda *a: calls.append("mul") or real_mul(*a))
    monkeypatch.setattr(la, "_echelon", lambda *a: calls.append("echelon") or real_echelon(*a))
    for R in _report_rings():
        clear_caches()
        calls.clear()
        rep = ring_report(R)
        assert calls == [], R.name
        assert rep.is_local and rep.radical_dim == R.dim - 1, R.name
        assert np.array_equal(rep.radical_basis.data, radical_by_elements(R)), R.name
        assert (rep.socle_dim, rep.loewy_length) == socle_and_loewy(R), R.name
        assert rep.is_gorenstein == (rep.socle_dim == 1), R.name
    clear_caches()


# -- what a monomial quotient is by construction ---------------------------------


def _construction_rings():
    return [ring_r1(), ring_r2(), ring_r3(), ring_r4(), _cube(3), _cube(4), _cube(5),
            algebra_from_monomial_quotient(GF2, ["x", "y"], ["x", "y^3"], name="X"),
            algebra_from_monomial_quotient(GF5, ["x"], ["x"], name="F5")]


@pytest.mark.parametrize("R", _construction_rings(), ids=lambda R: R.name)
def test_a_monomial_quotient_is_a_local_commutative_ring(R):
    """The dense tables made from the product table are commutative,
    associative and unital at e_0, and every e_i, i > 0, is nilpotent, so
    the ring is local with maximal ideal e_1..e_(d-1).  Associativity is
    checked by index arithmetic on the products (index d stands for 0), and
    also by the dense (d^2, d^2) product where that is small."""
    d, products = R.dim, R.monomial_data.products
    P = np.full((d + 1, d + 1), d, dtype=np.int64)
    P[:d, :d] = np.where(products >= 0, products, d)
    assert np.array_equal(P, P.T)
    assert np.array_equal(P[0], np.arange(d + 1))
    for i in range(d):
        # row j, column l: (e_i e_j) e_l on the left, e_i (e_j e_l) on the right
        assert np.array_equal(P[P[i, :d], :d], P[i, P[:d, :d]]), (R.name, i)
    idx, power = np.arange(d), np.arange(d)
    for _ in range(d):
        power = P[power, idx]
    assert power[0] == 0 and (power[1:] == d).all()
    rep = ring_report(R)
    assert rep.is_local and rep.radical_dim == d - 1
    assert np.array_equal(radical(R).data, np.eye(d, dtype=np.int64)[:, 1:])

    c, lm = R.structure, R.left_mult
    assert not c.flags.writeable and not lm.flags.writeable
    assert c.shape == (d, d, d) and np.array_equal(lm, c.transpose(0, 2, 1))
    i, j = np.nonzero(products >= 0)
    assert c.sum() == i.size and (c[i, j, products[i, j]] == 1).all()
    assert np.array_equal(c, c.transpose(1, 0, 2))
    assert np.array_equal(c[0], np.eye(d, dtype=np.int64))
    assert np.array_equal(np.tensordot(R.unit, c, axes=1), np.eye(d, dtype=np.int64))
    if d <= 27:
        # prod[i, j, l, m]: e_m in (e_i e_j) e_l; e_i (e_j e_l) is prod[j, l, i, m]
        prod = (c.reshape(d * d, d) @ c.reshape(d, d * d)).reshape(d, d, d, d)
        assert np.array_equal(prod, prod.transpose(2, 0, 1, 3))


def test_check_ring_of_a_generated_d125_session(tmp_path, capsys):
    from semidual.cli import main

    path = tmp_path / "T125.session"
    path.write_text('[ring]\nname = "T125"\nfield = 3\nvariables = ["x", "y", "z"]\n'
                    'relations = ["x^5", "y^5", "z^5"]\n')
    assert main(["check-ring", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "pass"
    assert out["dimensions"] == {"dim": 125, "is_local": True, "radical_dim": 124,
                                 "socle_dim": 1, "is_gorenstein": True, "loewy_length": 13}
