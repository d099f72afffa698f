import math
import re
from dataclasses import fields

import pytest

from meterwork.numeric import NumericPolicy

# values each field must reject, and the edge value it must accept
_OUT_OF_RANGE = {
    "outcome_floor": ((-1.0, -1e-300, 1.0, math.nan, math.inf), 0.0),
    "max_dim": ((0, -4, math.nan), 1),
}
_TOLERANCE = ((-1e-3, -math.inf, math.nan, math.inf), 0.0)


@pytest.mark.parametrize("name", [f.name for f in fields(NumericPolicy)])
def test_field_range_checked_and_named(name):
    bad, edge = _OUT_OF_RANGE.get(name, _TOLERANCE)
    for value in bad:
        message = re.escape(f"NumericPolicy.{name} must ") + r".*" + re.escape(f", got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            NumericPolicy(**{name: value})
    assert getattr(NumericPolicy(**{name: edge}), name) == edge
