"""The text of a float, as every CSV writer of the package writes it.

``float_texts`` gives ``repr(float(v))`` for each value of an array, encoded,
at a fraction of the cost of calling ``repr`` per value: orjson's compiled
shortest round-trip formatter (Ryu, Adams 2018) writes the same digits, and
the same layout wherever 1e-4 <= |v| < 1e16 and at zero.  Outside that band
orjson writes ``0.00001``, ``1e16`` or ``null`` where ``repr`` writes
``1e-05``, ``1e+16`` or ``nan``, so those few values go through ``repr``.
"""

from __future__ import annotations

import numpy as np


def float_texts(values) -> list[bytes]:
    """``[repr(float(v)).encode() for v in values]`` for a 1-D array (any
    real dtype, any strides), as one list.  orjson is imported on the first
    call, so importing the package does not pay for it."""
    import orjson

    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"float_texts takes a 1-D array, got shape {a.shape}")
    if not a.size:
        return []
    texts = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    mag = np.abs(a)
    # outside [1e-4, 1e16): both comparisons agree there, for NaN too
    for i in np.flatnonzero((mag < 1e-4) == (mag < 1e16)).tolist():
        if a[i] != 0:  # +-0.0 already match
            texts[i] = repr(float(a[i])).encode()
    return texts
