import pytest

from daeobs.errors import InputError, InternalConsistencyError, require


def test_require_returns_the_measured_pair():
    assert require("E D_s = 0", 1e-12, 2e-9) == (1e-12, 2e-9)
    assert require("rank(L) = k", 0, 0) == (0.0, 0.0)


@pytest.mark.parametrize("value", [3e-9, float("nan")])
def test_require_names_the_violated_identity(value):
    with pytest.raises(InternalConsistencyError, match=r"'B_c E C_x = I'"):
        require("B_c E C_x = I", value, 2e-9)


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_require_rejects_a_tolerance_that_overflowed(tol):
    # a defect checked against inf would pass whatever it is
    with pytest.raises(InputError, match=r"^identity 'E D_s = 0' cannot be "
                       r"checked: the data's scale overflows the float range$"):
        require("E D_s = 0", 1.0, tol)
