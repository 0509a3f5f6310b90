import random

import pytest

from reciprocity.fields import QQ, ExtensionField, PrimeField


@pytest.fixture
def rng():
    return random.Random(20240801)


@pytest.fixture
def F2():
    return PrimeField(2)


@pytest.fixture
def F3():
    return PrimeField(3)


@pytest.fixture
def F5():
    return PrimeField(5)


@pytest.fixture
def F7():
    return PrimeField(7)


@pytest.fixture
def F2_64_13():
    """F_p for p = 2^64 + 13, above the compiled kernels' PMAX: it runs the pure kernels."""
    return PrimeField(2**64 + 13)


@pytest.fixture
def F4():
    return ExtensionField(2, [1, 1, 1])


@pytest.fixture
def F8():
    return ExtensionField(2, [1, 1, 0, 1])


@pytest.fixture
def F9():
    return ExtensionField(3, [1, 0, 1])


@pytest.fixture
def Q():
    return QQ
