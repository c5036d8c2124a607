"""The Walsh counting kernel against the enumeration route, and its chunking."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latsec import counting
from latsec.channel import exact_leakage, make_codebook, random_dithers
from latsec.extractor import key_secrecy_report
from latsec.hashing import FiniteFieldMatrix, sample_linear_hash


@st.composite
def leakage_instances(draw):
    m = draw(st.sampled_from([2, 4, 8]))
    n_bar = draw(st.integers(1, 3))
    n_layers = draw(st.sampled_from([1, n_bar]))
    cb = make_codebook(m, n_bar, n_layers)
    n0 = cb.n0_bits
    r0 = draw(st.integers(1, min(n0, 4)))
    bits = draw(st.lists(st.integers(0, 1), min_size=r0 * n0, max_size=r0 * n0))
    entries = np.array(bits).reshape(r0, n0)
    deficient = draw(st.booleans())
    if deficient:
        # the last row repeats the xor of two others, or is zero
        entries[-1] = (entries[0] ^ entries[1]) if r0 > 1 else 0
    g = FiniteFieldMatrix(2, entries)
    assume((g.rank() < r0) == deficient)
    d1 = random_dithers(cb, np.random.default_rng(draw(st.integers(0, 2 ** 16))))
    return cb, g, d1, draw(st.sampled_from(["+", "-"]))


@settings(max_examples=60, deadline=None)
@given(leakage_instances())
def test_walsh_leakage_matches_enumeration(instance):
    cb, g, d1, sign = instance
    fast = exact_leakage(cb, g, d1, sign, method="fast")
    assert fast == pytest.approx(exact_leakage(cb, g, d1, sign, method="enumerate"), abs=1e-9)


@pytest.mark.parametrize("cells", [7, 300])
def test_figures_do_not_depend_on_chunking(monkeypatch, cells):
    cb = make_codebook(4, 3)
    d1 = random_dithers(cb, np.random.default_rng(1))
    g = sample_linear_hash(3, cb.n0_bits, 2, 5)
    audit_cb = make_codebook(2, 3)
    leak = exact_leakage(cb, g, d1, "-")
    audit = key_secrecy_report(audit_cb, 2, sign="+")
    monkeypatch.setattr(counting, "CHUNK_CELLS", cells)
    assert exact_leakage(cb, g, d1, "-") == leak
    assert key_secrecy_report(audit_cb, 2, sign="+") == audit
