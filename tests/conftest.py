import pytest

from comb_ranger.air_model import AirState


@pytest.fixture
def standard_air() -> AirState:
    return AirState.standard()


@pytest.fixture
def vacuum() -> AirState:
    return AirState(20.0, 0.0, 0.04, 0.0)
