import pytest

from toy import separable_toy_set


@pytest.fixture(scope="session")
def toy_training_setup():
    return separable_toy_set()
