"""Reference implementations that the tests compare the program against.

Each is the plain form of something the program computes in a faster or
fused way; none of them is on a command's path.
"""

import numpy as np


def stress_to_drive(inputs, params):
    """Drive in mV/ms over whole traces: alpha' * sum_j |f_j| / (a_j + |f_j|).

    The terms are summed in chain order and then scaled, the same IEEE
    operations SpikeCounter applies to one step of every unit, so the two
    agree bit for bit.
    """
    sats = params.saturation()
    assert len(inputs) == len(sats), (len(inputs), sats)
    drive = None
    for f, a in zip(inputs, sats):
        f = np.abs(np.asarray(f, dtype=float))
        term = f / (a + f)
        drive = term if drive is None else drive + term
    return drive * params.alpha_prime


def dominates(a, b):
    """Minimization dominance: a no worse everywhere, better somewhere."""
    return bool(np.all(a <= b) and np.any(a < b))
