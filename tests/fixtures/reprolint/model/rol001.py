"""ROL001 fixture: np.roll in the model's periodic stencils (model/)."""
import numpy as np
from numpy import roll

from repro.grid import periodic_shift


def bad_stencil(f):
    east = np.roll(f, -1, axis=-1)  # positive: generic roll in a stencil
    north = roll(f, -1, axis=-2)  # positive: from-import spelling
    return east + north


def good_stencil(f, ring):
    east = periodic_shift(f, -1, -1)  # negative: the sanctioned shift
    return east, ring.roll(1)  # negative: a method named roll is not numpy.roll


def tolerated(f):
    return np.roll(f, 3, axis=0)  # reprolint: ok ROL001 fixture demonstrates suppression
