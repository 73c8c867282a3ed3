"""The vectorized float formatter against Python's ``repr``, byte for byte."""

import numpy as np

from optospring.floattext import WIDTH, reprs


def _texts(values: np.ndarray) -> list[bytes]:
    """The cells of ``reprs``, their NUL padding dropped."""
    cells = reprs(values)
    assert cells.shape == (values.size, WIDTH) and cells.dtype == np.uint8
    return cells.view(f"S{WIDTH}").ravel().tolist()


def _with_neighbours(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def _sample() -> np.ndarray:
    rng = np.random.default_rng(20200406)
    powers = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),  # every power of two, subnormal ones too
        [float(f"1e{e}") for e in range(-323, 309)],  # every power of ten in range
        # where repr switches between positional and exponent layout
        [1e-4, 9.999999999999999e-05, 1e-05, 1e15, 1e16, 9999999999999998.0],
    ])
    short = np.arange(1, 201)[:, None] * 10.0 ** np.arange(-12, 22)  # few significant digits
    decades = rng.random(10_000) * 10.0 ** rng.integers(-8, 20, 10_000)  # every positional layout
    specials = [0.0, 5e-324, 2.225073858507201e-308, np.inf, np.nan, 1.7976931348623157e308]
    subnormals = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    values = np.concatenate([
        _with_neighbours(powers), short.ravel(), decades, specials, subnormals
    ])
    return np.concatenate([values, -values, bits])


def test_same_bytes_as_repr():
    values = _sample()
    expected = [repr(v).encode() for v in values.tolist()]
    wrong = [(v, t, e) for v, t, e in zip(values.tolist(), _texts(values), expected) if t != e]
    assert wrong[:5] == [] and len(values) > 250_000


def test_any_length_and_dtype():
    # chunk edges, an empty array, a strided view and float32 input
    values = np.linspace(-3.0, 7.0, 4099)
    for sample in (values, values[:0], values[::3], values[:2049].astype(np.float32)):
        assert _texts(sample) == [repr(float(v)).encode() for v in sample.tolist()]
