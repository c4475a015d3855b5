import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiheat
from semiheat._floats import float_texts


def reference(values):
    # the text every CSV writer wrote before float_texts: repr per value
    return [repr(float(x)).encode() for x in values]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(width=64), max_size=40))
def test_float_texts_is_repr_of_each_float(xs):
    # NaN, the infinities, subnormals and both zeros included
    assert float_texts(np.array(xs, dtype=np.float64)) == reference(xs)


def test_float_texts_is_repr_on_arbitrary_bit_patterns():
    # every exponent, NaN payloads and subnormals among them, and values
    # whose shortest text is short (a 10-bit mantissa)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 1 << 64, size=50_000, dtype=np.uint64, endpoint=False).view(np.float64)
    uniform = rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-320, 308, 50_000)
    short = np.ldexp(rng.integers(1 << 9, 1 << 10, 50_000).astype(float), rng.integers(-1080, 1010, 50_000))
    for values in (bits, uniform, short):
        assert float_texts(values) == reference(values)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0],
        [1e-4, np.nextafter(1e-4, 0.0), -1e-4, -np.nextafter(1e-4, 0.0)],
        [1e16, 9999999999999998.0, -1e16, -9999999999999998.0],
        [5e-324, -5e-324, np.finfo(np.float64).tiny],
        [np.finfo(np.float64).max, -np.finfo(np.float64).max],
        [np.nan, np.inf, -np.inf, 1.0, 0.1, 1.0 / 3.0],
        [],
    ],
)
def test_float_texts_edges(values):
    assert float_texts(np.array(values, dtype=np.float64)) == reference(values)


def test_float_texts_takes_strided_float32_and_integer_input():
    a = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0
    assert float_texts(a[:, 1]) == reference(a[:, 1])
    assert float_texts(a[::-1, 2]) == reference(a[::-1, 2])
    f32 = np.array([0.1, 1e-5, 3.4e38, -2.5], dtype=np.float32)
    assert float_texts(f32) == reference(f32)
    ints = np.array([0, -3, 2**53 + 1, 10**17], dtype=np.int64)
    assert float_texts(ints) == reference(ints)
    with pytest.raises(ValueError, match="1-D"):
        float_texts(a)


def test_import_leaves_orjson_unloaded():
    # orjson is imported on the first float_texts call, not with the package
    src = os.path.dirname(os.path.dirname(semiheat.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import semiheat, semiheat.cli; print('orjson' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
