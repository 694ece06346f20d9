import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=60, derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def r6_at_8():
    from dnls_nflab.order4 import compute_R6

    return compute_R6(8)


@pytest.fixture(scope="session")
def r6_at_10():
    from dnls_nflab.order4 import compute_R6

    return compute_R6(10)


@pytest.fixture(scope="session")
def bundle8():
    from dnls_nflab.flows import normal_form_bundle

    return normal_form_bundle(8)


@pytest.fixture
def no_grid(monkeypatch):
    """np.meshgrid refuses to run: an enumerator that raises under this
    fixture has built no grid."""

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "meshgrid", refuse)
