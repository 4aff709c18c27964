"""The Nystrom products of the DOP853 tableau, bit for bit."""

import math
import re

from ssp import _dop853

NAME = re.compile(r"_P(\d+)_(\d+)|_(BY|E5Y|E3Y)(\d+)")


STAGES = 13  # stage 12 is the step end, the next step's first stage


def _dense(row):
    return [row.get(j, 0.0) for j in range(STAGES)]


def _dense_times_a(w):
    """w times A over every entry of the dense 13x13 A, zeros included."""
    a = [_dense(row) for row in _dop853._A_ROWS]
    return [math.fsum(wi * ai[k] for wi, ai in zip(w, a)) for k in range(STAGES)]


def test_nystrom_products_match_the_dense_recipe():
    a2 = [_dense_times_a(_dense(row)) for row in _dop853._A_ROWS]
    weights = {"BY": _dop853._B, "E5Y": _dop853._E5, "E3Y": _dop853._E3}
    by_weights = {name: _dense_times_a(w) for name, w in weights.items()}
    checked = 0
    for name, value in vars(_dop853).items():
        m = NAME.fullmatch(name)
        if m is None:
            continue
        if m[1] is not None:
            expected = a2[int(m[1])][int(m[2])]
        else:
            expected = by_weights[m[3]][int(m[4])]
        assert value.hex() == expected.hex(), name
        checked += 1
    # 48 entries of A^2 and 9 weights each of the y update and its errors
    assert checked == 48 + 3 * 9
    # the entries bound to _ are the dense recipe's zeros, too
    for i, row in enumerate(_dop853._A_ROWS):
        assert [x.hex() for x in _dop853._times_a(_dense(row))] == [x.hex() for x in a2[i]]
        assert [x.hex() for x in _dop853._A2[i]] == [x.hex() for x in a2[i][: i - 1]]
    for name, w in weights.items():
        assert [x.hex() for x in _dop853._times_a(w)] == [x.hex() for x in by_weights[name]]
