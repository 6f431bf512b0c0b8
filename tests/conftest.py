"""Shared test fixtures: the COO reference for the V-cycle's P1 transfers."""

import numpy as np
import pytest
import scipy.sparse as sp


def _coo_prolongation(nc):
    """The P1 interpolation matrix from the nc-grid to the 2nc-grid, from
    COO triplets of each kind of fine node, converted to CSR by scipy: the
    reference for the V-cycle's transfers."""
    nf = 2 * nc
    fidx = np.arange((nf + 1) ** 2)
    fy, fx = np.divmod(fidx, nf + 1)
    rows, cols, vals = [], [], []

    def add(on, cx, cy, weight):
        rows.append(fidx[on])
        cols.append(cy[on] * (nc + 1) + cx[on])
        vals.append(np.full(on.sum(), weight))

    add((fx % 2 == 0) & (fy % 2 == 0), fx // 2, fy // 2, 1.0)
    for shift in (0, 1):
        add((fx % 2 == 1) & (fy % 2 == 0), (fx - 1) // 2 + shift, fy // 2, 0.5)
        add((fx % 2 == 0) & (fy % 2 == 1), fx // 2, (fy - 1) // 2 + shift, 0.5)
        add((fx % 2 == 1) & (fy % 2 == 1), (fx - 1) // 2 + shift, (fy - 1) // 2 + shift, 0.5)
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=((nf + 1) ** 2, (nc + 1) ** 2)).tocsr()


@pytest.fixture(scope="session")
def coo_prolongation():
    return _coo_prolongation
