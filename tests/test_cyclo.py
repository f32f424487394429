import random

import pytest

from hexsbs.cyclo import (ALPHA, BETA, GAMMA, IDENTITY, MINUS_IDENTITY,
                          CycInt, Mat2, PMClass, classify_pm,
                          generator_matrix, omega_power, ONE, ZERO)

from oracles import cyc_to_complex, mats_close, mat_to_complex

W = omega_power(1)


def c(c0=0, c1=0, c2=0, c3=0):
    return CycInt(c0, c1, c2, c3)


def test_omega_squared_squared():
    # forced by the minimal polynomial w^4 = w^2 - 1
    assert omega_power(2) * omega_power(2) == c(-1, 0, 1, 0)


def test_omega_cubed_squared():
    assert omega_power(3) * omega_power(3) == c(-1)


def test_difference_of_squares():
    one_plus = c(1, 1)
    one_minus = c(1, -1)
    assert one_plus * one_minus == c(1, 0, -1, 0)


def test_omega_power_table():
    # closed forms implied by w^4 = w^2 - 1
    expected = {
        0: c(1), 1: c(0, 1), 2: c(0, 0, 1), 3: c(0, 0, 0, 1),
        4: c(-1, 0, 1), 5: c(0, -1, 0, 1), 6: c(-1),
        7: c(0, -1), 8: c(0, 0, -1), 9: c(0, 0, 0, -1),
        10: c(1, 0, -1), 11: c(0, 1, 0, -1), 12: c(1),
    }
    for n, want in expected.items():
        assert omega_power(n) == want, n


def test_ring_axioms_random():
    rng = random.Random(2024)

    def rand():
        return CycInt(*(rng.randrange(-40, 41) for _ in range(4)))

    for _ in range(300):
        x, y, z = rand(), rand(), rand()
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_complex_embedding_agrees():
    rng = random.Random(7)
    for _ in range(200):
        x = CycInt(*(rng.randrange(-9, 10) for _ in range(4)))
        y = CycInt(*(rng.randrange(-9, 10) for _ in range(4)))
        got = cyc_to_complex(x * y)
        want = cyc_to_complex(x) * cyc_to_complex(y)
        assert abs(got - want) < 1e-9


def test_generator_matrices():
    assert ALPHA == Mat2(omega_power(7), ZERO, ZERO, omega_power(5))
    # reduced coefficients: w^7 = -w, w^5 = w^3 - w
    assert ALPHA == Mat2(c(0, -1), ZERO, ZERO, c(0, -1, 0, 1))
    assert generator_matrix("beta").det() == ONE
    for label in ("alpha", "beta", "gamma"):
        assert generator_matrix(label).det() == ONE
    with pytest.raises(ValueError):
        generator_matrix("delta")


def test_beta_alpha_product():
    # derived by hand and cross-checked numerically below
    got = BETA * ALPHA
    assert got == Mat2(c(0, 0, 1), c(0, 0, -1), ZERO, c(1, 0, -1))
    assert mats_close(mat_to_complex(got),
                      [[cyc_to_complex(omega_power(2)),
                        -cyc_to_complex(omega_power(2))],
                       [0j, 1 - cyc_to_complex(omega_power(2))]])


def test_identity_laws():
    m = GAMMA * BETA * ALPHA
    assert IDENTITY * m == m
    assert m * IDENTITY == m
    assert ALPHA * ALPHA.inv() == IDENTITY


def test_inverse():
    assert ALPHA.inv() == Mat2(omega_power(5), ZERO, ZERO, omega_power(7))
    assert IDENTITY.inv() == IDENTITY
    ba = BETA * ALPHA
    assert ba.inv() * ba == IDENTITY
    with pytest.raises(ValueError):
        Mat2(c(2), ZERO, ZERO, c(1)).inv()


def test_classify_pm():
    assert classify_pm(IDENTITY) is PMClass.PLUS_IDENTITY
    assert classify_pm(MINUS_IDENTITY) is PMClass.MINUS_IDENTITY
    assert classify_pm(BETA * ALPHA) is PMClass.OTHER


def test_trace():
    assert IDENTITY.trace() == CycInt(2)
    assert MINUS_IDENTITY.trace() == CycInt(-2)
    # the X step matrix has trace w^2 + (1 - w^2) = 1
    assert (BETA * ALPHA).trace() == ONE


def test_det_multiplicative_random():
    rng = random.Random(99)
    gens = [ALPHA, BETA, GAMMA, ALPHA.inv(), BETA.inv(), GAMMA.inv()]
    for _ in range(200):
        m = IDENTITY
        for _ in range(rng.randrange(1, 12)):
            m = m * gens[rng.randrange(6)]
        assert m.det() == ONE


def test_mat2_key_is_canonical():
    # equal products are one set key, and +-I are two
    assert len({IDENTITY, MINUS_IDENTITY, BETA * ALPHA, BETA * ALPHA}) == 3
    assert hash(BETA * ALPHA) == hash(BETA * ALPHA)
    assert Mat2(ONE, ZERO, ZERO, ONE) in {IDENTITY}
