import numpy as np
import pytest

from tribos import stm
from tribos.symbols import default_s0


@pytest.fixture(scope="session")
def s0() -> float:
    return default_s0()


@pytest.fixture
def failed_certificates(monkeypatch) -> list:
    """Every certificate runs as it is, then its spent C lower triangle is
    overwritten (finite, as a factor is) and the check fails: no solve may
    read that triangle afterwards.  The list gets each certificate's own
    result."""
    certify, spent = stm._certified_lower_bound, []

    def fail(matrix, theta, r):
        spent.append(certify(matrix, theta, r))
        matrix[np.tril_indices(len(matrix), -1)] = 1e3

    monkeypatch.setattr(stm, "_certified_lower_bound", fail)
    return spent
