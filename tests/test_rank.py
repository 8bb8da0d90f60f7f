"""Rank module: rectangle sweeps, brute force, Morse betas, multiplicity bounds."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import icelab as il
from icelab.errors import ConfigurationError
from icelab.rank import _certificate, _cut_classes


def random_iceberg(rng, h_max=32, q_max=48) -> il.Iceberg:
    h = int(rng.integers(2, h_max + 1))
    q = int(rng.integers(1, q_max + 1))
    vals, cnts = np.unique(rng.integers(0, h, q), return_counts=True)
    return il.Iceberg(h=h, q=q, cuts=vals, counts=cnts, cyclic=True)


# ---------------------------------------------------------------------------
# Sweep certificates
# ---------------------------------------------------------------------------


def test_uniform_101():
    ib = il.Iceberg(h=101, q=101, cuts=np.arange(101), counts=[1] * 101, cyclic=True)
    cert = il.best_subtower_rectangle(ib)
    assert cert.area == Fraction(2601, 10201)
    assert float(cert.area) >= 0.245


def test_single_column_is_full():
    ib = il.Iceberg(h=7, q=3, cuts=[2], counts=[3], cyclic=True)
    cert = il.best_subtower_rectangle(ib)
    assert cert.area == 1
    assert cert.weight == 1


def test_morse_r2_beta():
    sch = il.morse_schedule(2, 1, il.word_from_text(il.BINARY, "01" * 210))
    cert = il.best_subtower_rectangle(il.from_stage(sch, 0))
    assert abs(float(cert.area) - float(il.beta_morse(2))) <= 1 / 420


def test_morse_r3_beta():
    sch = il.morse_schedule(3, 1, il.word_from_text(il.Alphabet(tuple("AB")), "AB" * 315))
    cert = il.best_subtower_rectangle(il.from_stage(sch, 0))
    assert abs(float(cert.area) - float(il.beta_morse(3))) <= 1 / 630


def test_certificate_geometry_valid():
    rng = np.random.default_rng(9)
    for _ in range(20):
        ib = random_iceberg(rng)
        cert = il.best_subtower_rectangle(ib)
        assert 1 <= cert.cut_lo <= cert.cut_hi <= ib.h
        assert cert.cut_hi - ib.h <= cert.level_lo <= cert.level_hi <= cert.cut_lo - 1
        assert 0 <= cert.area <= 1


def test_certificate_serialization():
    ib = il.Iceberg(h=5, q=2, cuts=[1, 3], counts=[1, 1], cyclic=True)
    cert = il.best_subtower_rectangle(ib)
    d = cert.to_dict()
    assert set(d) == {"columns", "levels", "area", "weight"}
    assert d["columns"] == [cert.cut_lo, cert.cut_hi]
    assert d["levels"] == [cert.level_lo, cert.level_hi]


def test_sweep_refuses_non_cyclic():
    ib = il.Iceberg(h=4, q=2, cuts=[1], counts=[2], cyclic=False)
    with pytest.raises(ConfigurationError):
        il.best_subtower_rectangle(ib)


# ---------------------------------------------------------------------------
# Brute force agreement
# ---------------------------------------------------------------------------


def test_sweep_matches_brute_small():
    rng = np.random.default_rng(3)
    for _ in range(30):
        ib = random_iceberg(rng, h_max=20, q_max=24)
        a = il.best_subtower_rectangle(ib)
        b = il.brute_force_rectangle(ib)
        assert a.area == b.area


def test_sweep_matches_brute_h64():
    rng = np.random.default_rng(12)
    vals, cnts = np.unique(rng.integers(0, 64, 96), return_counts=True)
    ib = il.Iceberg(h=64, q=96, cuts=vals, counts=cnts, cyclic=True)
    a = il.best_subtower_rectangle(ib)
    b = il.brute_force_rectangle(ib)
    assert a.area == b.area


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_sweep_matches_brute_property(seed):
    rng = np.random.default_rng(seed)
    ib = random_iceberg(rng, h_max=12, q_max=16)
    assert il.best_subtower_rectangle(ib).area == il.brute_force_rectangle(ib).area


def _masked_sweep(ib: il.Iceberg) -> il.RectangleCertificate:
    """The dense sweep with its ``i > j`` cells masked to -1 before ``argmax``."""
    ks, cs = _cut_classes(ib)
    m = ks.size
    prefix = np.concatenate(([0], np.cumsum(cs)))
    wsum = prefix[None, 1:] - prefix[:-1, None]
    score = wsum * (ib.h - (ks[None, :] - ks[:, None]))
    score[np.tril_indices(m, -1)] = -1
    i, j = divmod(int(np.argmax(score)), m)
    return _certificate(ib, int(ks[i]), int(ks[j]), int(wsum[i, j]))


@st.composite
def tied_icebergs(draw) -> il.Iceberg:
    # Equal counts on one cut, on evenly spaced cuts (rotation 0, class h,
    # included whenever the offset is 0) or on any set of cuts: many windows
    # then share the best area, so the tie-break decides the certificate.
    h = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["single", "even", "any"]))
    if kind == "single":
        cuts = [draw(st.integers(0, h - 1))]
    elif kind == "even":
        step = draw(st.integers(1, h))
        cuts = list(range(draw(st.integers(0, step - 1)), h, step))
    else:
        cuts = sorted(draw(st.sets(st.integers(0, h - 1), min_size=1)))
    c = draw(st.integers(1, 3))
    return il.Iceberg(h=h, q=c * len(cuts), cuts=cuts, counts=[c] * len(cuts), cyclic=True)


@given(ib=tied_icebergs())
@settings(max_examples=200, deadline=None)
def test_sweep_certificate_matches_the_masked_sweep_under_ties(ib):
    cert = il.best_subtower_rectangle(ib)
    assert cert == _masked_sweep(ib)  # every field, the tie-broken windows included
    assert cert.area == il.brute_force_rectangle(ib).area


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_beta_morse_values():
    assert il.beta_morse(2) == Fraction(1, 2)
    assert il.beta_morse(3) == Fraction(4, 9)
    assert il.beta_morse(4) == Fraction(4 * 6, 4 * 16)  # r(r+2)/(4r^2) = 24/64
    assert il.beta_morse(5) == Fraction(36, 100)  # ((r+1)/(2r))^2


def test_beta_morse_limit_quarter():
    # beta decreases towards 1/4 as r grows.
    vals = [il.beta_morse(r) for r in range(2, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > Fraction(1, 4)
    assert float(il.beta_morse(1000)) == pytest.approx(0.25, abs=1e-3)


def test_beta_morse_requires_r_ge_2():
    with pytest.raises(ConfigurationError):
        il.beta_morse(1)


def test_multiplicity_bound():
    assert il.multiplicity_bound(Fraction(1, 4)) == 4
    assert il.multiplicity_bound(Fraction(1, 1)) == 1
    assert il.multiplicity_bound(0.5) == 2
    assert il.multiplicity_bound(Fraction(1, 3)) == 3


def test_multiplicity_bound_validates():
    with pytest.raises(ConfigurationError):
        il.multiplicity_bound(0.0)
    with pytest.raises(ConfigurationError):
        il.multiplicity_bound(1.5)
