import numpy as np
import pytest

from semidual.algebra import (
    Algebra,
    algebra_from_monomial_quotient,
    algebra_from_structure_constants,
    parse_polynomial,
    radical,
    require_local,
    ring_report,
)
from semidual.errors import (
    InputError,
    NotCofiniteError,
    ParseError,
    UnsupportedRingError,
)
from semidual.linalg import Field, Mat, _mul_arrays, kernel_basis

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


def test_structure_constant_validation():
    # non-commutative: e1*e2 = e1 but e2*e1 = 0
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    c[1, 1, 0] = 1
    unit = [1, 0]
    algebra_from_structure_constants(GF3, c, unit)  # valid: GF(3)[x]/(x^2-1)
    bad = c.copy()
    bad[1, 0, 1] = 0
    with pytest.raises(InputError, match="commutative"):
        algebra_from_structure_constants(GF3, bad, unit)
    # wrong unit
    with pytest.raises(InputError, match="unit"):
        algebra_from_structure_constants(GF3, c, [0, 1])
    # non-associative but commutative: e1*e1 = e0 with e0 acting as zero... build directly
    c2 = np.zeros((2, 2, 2), dtype=np.int64)
    c2[0, 0, 0] = 1
    c2[0, 1, 1] = 1
    c2[1, 0, 1] = 1
    c2[1, 1, 1] = 1  # x*x = x, but then (x*x)*x = x vs x*(x*x) = x: associative...
    algebra_from_structure_constants(GF3, c2, unit)  # fine: idempotent
    c3 = np.zeros((3, 3, 3), dtype=np.int64)
    # e0 unit; x*x = y, x*y = e0 (non-associative: (xx)y=y^2=0 vs x(xy)=x)
    c3[0] = np.eye(3, dtype=np.int64)
    c3[:, 0] = np.eye(3, dtype=np.int64)
    c3[1, 1, 2] = 1
    c3[1, 2, 0] = 1
    c3[2, 1, 0] = 1
    with pytest.raises(InputError, match="associative"):
        algebra_from_structure_constants(GF3, c3, [1, 0, 0])


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


def _element_power(R, u, exp):
    """u^exp by square-and-multiply, one element at a time."""
    acc = R.one()
    base = u.copy()
    e = exp
    while e:
        if e & 1:
            acc = R.mul(acc, base)
        base = R.mul(base, base)
        e >>= 1
    return acc


def _radical_by_elements(R):
    """Kernel of the t-fold Frobenius, its matrix built column by column."""
    p, d = R.field.p, R.dim
    t, power = 0, 1
    while power < d:
        power *= p
        t += 1
    frob = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        frob[:, i] = _element_power(R, np.eye(d, dtype=np.int64)[i], p)
    total = np.eye(d, dtype=np.int64)
    for _ in range(t):
        total = _mul_arrays(frob, total, p)
    return kernel_basis(Mat(R.field, total)).data


def _square_of_quadratic(a, b, p):
    """(c0, c1, c2, c3) with x^4 - c3*x^3 - c2*x^2 - c1*x - c0 equal to
    ((x - a)(x - b))^2 mod p, whose quotient has a 2-dimensional radical."""
    s, q = a + b, a * b
    return (-q * q % p, 2 * s * q % p, -(s * s + 2 * q) % p, 2 * s % p)


def test_batched_frobenius_radical_matches_per_element_oracle():
    from semidual.modules import clear_caches

    big = Field(2 ** 31 - 1)
    rings = [ring_r1(), ring_r2(), ring_r3(), ring_r4(),
             algebra_from_monomial_quotient(GF3, ["x", "y", "z"],
                                            ["x^3", "y^3", "z^3"], name="T27"),
             algebra_from_monomial_quotient(big, ["x", "y"], ["x^3", "x*y^2", "y^4"]),
             algebra_from_structure_constants(
                 big, _quartic_table((2147483145, 2147483132, 2147482763, 2147483627),
                                     big.p), [1, 0, 0, 0]),
             algebra_from_structure_constants(
                 big, _quartic_table(_square_of_quadratic(1234567891, 987654321, big.p),
                                     big.p), [1, 0, 0, 0])]
    clear_caches()
    for R in rings:
        want = _radical_by_elements(R)
        got = radical(R).data
        assert got.shape == want.shape and np.array_equal(got, want), R.name
    assert radical(rings[-1]).cols == 2


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


def test_non_local_ring_detected():
    # GF(2) x GF(2): idempotents e0, e1; unit = e0 + e1
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = 1
    c[1, 1, 1] = 1
    R = algebra_from_structure_constants(GF2, c, [1, 1])
    rep = ring_report(R)
    assert rep.radical_dim == 0
    assert not rep.is_local
    assert not rep.is_gorenstein
    with pytest.raises(UnsupportedRingError):
        require_local(R)


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


def _poly_product(u, v, p, reduce):
    """Python-int product of two coefficient vectors (low degree first),
    with x^k for k >= len(u) rewritten by reduce(k) (None: x^k = 0)."""
    n = len(u)
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] += int(a) * int(b)
    out = prod[:n]
    for k in range(n, 2 * n - 1):
        if reduce(k) is not None:
            out = [o + prod[k] * r for o, r in zip(out, reduce(k))]
    return [o % p for o in out]


def _product_rings(p):
    """GF(p)[x]/(x^3) as a monomial quotient, and GF(p)[x]/(x^3 - a*x - b)
    given by full structure constants, each with its Python-int oracle."""
    mono = algebra_from_monomial_quotient(Field(p), ["x"], ["x^3"])
    rng = np.random.default_rng(7)
    a, b = (int(t) for t in rng.integers(0, p, size=2))
    cubic = {3: [b, a, 0], 4: [0, b, a]}        # x^3 = a*x + b, x^4 = a*x^2 + b*x
    powers = [[1, 0, 0], [0, 1, 0], [0, 0, 1], cubic[3], cubic[4]]
    c = np.array([[powers[i + j] for j in range(3)] for i in range(3)], dtype=np.int64)
    sc = algebra_from_structure_constants(Field(p), c, [1, 0, 0])
    return [(mono, lambda k: None), (sc, cubic.get)]


@pytest.mark.parametrize("p", [2, 3, 65521, 2 ** 31 - 1])
def test_mul_and_mult_matrix_exact_for_every_prime(p):
    rng = np.random.default_rng(p % 997)
    for R, reduce in _product_rings(p):
        pairs = [rng.integers(0, p, size=(2, 3)) for _ in range(50)]
        # at p = 2^31 - 1 over x^3 = 0 this pair is [4, 13, 28]
        pairs.append(np.array([[p - 1, p - 2, p - 3], [p - 4, p - 5, p - 6]]) % p)
        for u, v in pairs:
            want = _poly_product(u, v, p, reduce)
            assert R.mul(u, v).tolist() == want
            M = R.mult_matrix(u)
            for j in range(3):
                assert M[:, j].tolist() == _poly_product(u, np.eye(3, dtype=np.int64)[j], p, reduce)


def _quartic_table(coeffs, p):
    """Structure constants of GF(p)[x]/(x^4 - c3*x^3 - c2*x^2 - c1*x - c0)
    in the basis 1, x, x^2, x^3, computed with Python ints."""
    powers = [[int(k == n) for k in range(4)] for n in range(4)]
    for _ in range(3):
        top = powers[-1][3]
        shifted = [0] + powers[-1][:3]
        powers.append([(s + top * c) % p for s, c in zip(shifted, coeffs)])
    return np.array([[powers[i + j] for j in range(4)] for i in range(4)],
                    dtype=np.int64)


def _associative_by_python_ints(c, p):
    d = len(c)
    t = c.tolist()
    for i in range(d):
        for j in range(d):
            for l in range(d):
                lhs = [sum(t[i][j][k] * t[k][l][m] for k in range(d)) % p for m in range(d)]
                rhs = [sum(t[j][l][k] * t[i][k][m] for k in range(d)) % p for m in range(d)]
                if lhs != rhs:
                    return False
    return True


def test_structure_constant_checks_exact_at_large_prime():
    p = 2 ** 31 - 1
    c = _quartic_table((2147483145, 2147483132, 2147482763, 2147483627), p)
    assert _associative_by_python_ints(c, p)
    R = algebra_from_structure_constants(Field(p), c, [1, 0, 0, 0])
    assert R.dim == 4
    bad = c.copy()
    bad[1, 2, 0] = (bad[1, 2, 0] + 1) % p
    bad[2, 1, 0] = (bad[2, 1, 0] + 1) % p
    assert not _associative_by_python_ints(bad, p)
    with pytest.raises(InputError, match="associative"):
        algebra_from_structure_constants(Field(p), bad, [1, 0, 0, 0])


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
