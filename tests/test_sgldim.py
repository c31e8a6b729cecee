import re

import pytest

from cnproj.complexes import Complex, length
from cnproj.homspaces import is_isomorphic
from cnproj.sgldim import compute_sgldim, sgldim_fast


def test_point(point_alg):
    r = compute_sgldim(point_alg)
    assert r.terminated and r.m0 == 2 and r.sgldim == 0
    assert length(r.witness) == 0
    rf = sgldim_fast(point_alg)
    assert rf.sgldim == 0


def test_a2(a2_alg):
    r = compute_sgldim(a2_alg)
    assert (r.m0, r.sgldim) == (3, 1)
    assert r.witness_line() == "P2 -> P1"
    assert sgldim_fast(a2_alg).sgldim == 1


def test_a3(a3_alg):
    r = compute_sgldim(a3_alg)
    assert (r.m0, r.sgldim) == (4, 2)
    assert [row[0] for row in r.per_window] == [2, 3, 4]
    assert r.per_window[-1][2] == 0
    assert all(row[2] > 0 for row in r.per_window[:-1])
    b = a3_alg.hom_proj_basis(3, 2)[0]
    a = a3_alg.hom_proj_basis(2, 1)[0]
    target = Complex(a3_alg, [(3,), (2,), (1,)], [[[b]], [[a]]])
    assert is_isomorphic(r.witness, target)
    assert length(r.witness) == r.sgldim
    assert sgldim_fast(a3_alg).sgldim == 2


def test_m0_identity(point_alg, a2_alg, a3_alg):
    for alg in (point_alg, a2_alg, a3_alg):
        r = compute_sgldim(alg)
        assert r.m0 == r.sgldim + 2
        rf = sgldim_fast(alg)
        assert rf.sgldim == r.sgldim and rf.m0 == r.m0


def test_monotone_max_length(a3_alg):
    from cnproj.universe import enumerate_indecomposables, max_length

    prev = -1
    for n in (2, 3, 4):
        uni = enumerate_indecomposables(a3_alg, n)
        ell, _ = max_length(uni)
        assert ell >= prev
        prev = ell


def test_cap(a3_alg):
    r = compute_sgldim(a3_alg, max_n=3)
    assert not r.terminated
    assert "indistinguishable" in r.cap_note


def test_infinite_gldim_stops_before_enumerating(fixtures_dir, monkeypatch):
    # cyc2 (1 <-> 2, ab = ba = 0) has infinite gl.dim, so s.gl.dim is infinite
    # too; without the gl.dim check every window up to max_n was enumerated
    from cnproj import sgldim as sgldim_mod
    from cnproj.algfile import load_algebra

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a window")

    monkeypatch.setattr(sgldim_mod, "enumerate_indecomposables", no_enumeration)
    _, alg = load_algebra(str(fixtures_dir / "cyc2.alg"))
    for driver in (compute_sgldim, sgldim_fast):
        r = driver(alg)
        assert not r.terminated and r.per_window == [] and r.universes == {}
        assert "gl.dim is infinite" in r.cap_note and "max_n - 2 = 14" in r.cap_note


def test_gldim_at_the_bound_still_enumerates(a6_alg):
    # gl.dim 3 = max_n - 2 does not decide; s.gl.dim 4 then exceeds the cap
    r = compute_sgldim(a6_alg, max_n=5)
    assert not r.terminated
    assert [row[0] for row in r.per_window] == [2, 3, 4, 5]
    assert "gl.dim" not in r.cap_note
    r = compute_sgldim(a6_alg, max_n=4)
    assert r.per_window == [] and "gl.dim = 3, and s.gl.dim >= gl.dim > max_n - 2 = 2" in r.cap_note


def test_round_cap_note_names_the_cap(a3_alg):
    from cnproj.universe import EnumConfig

    r = compute_sgldim(a3_alg, config=EnumConfig(max_rounds=1))
    assert not r.terminated and "indistinguishable" in r.cap_note
    assert "window 2: max_rounds = 1 ran out before a fixpoint" in r.cap_note


def test_summand_cap_note_names_the_cap(a3_alg):
    from cnproj.universe import EnumConfig

    # every window-2 candidate has at most 2 summands, so window 2 closes with
    # its full table; window 3 skips the first wider ones: the two indecomposable
    # cones P3->P2->P1 (d = b, a and -b, a).  The connected cone
    # P3->P2+P2->P1 is decomposable, so the pair rule drops it and does not
    # offer its summand P3->P2->P1 as a third candidate
    r = compute_sgldim(a3_alg, config=EnumConfig(max_total_summands=2))
    assert not r.terminated and "indistinguishable" in r.cap_note
    assert r.per_window[0] == (2, 11, 2) and "window 2" not in r.cap_note
    assert "window 3: max_total_summands = 2 skipped 2 candidates" in r.cap_note


def test_exhausted_max_n_note_names_max_n(a6_alg):
    # gl.dim 3 = max_n - 2 lets every window run; s.gl.dim 4 is past the cap
    for driver in (compute_sgldim, sgldim_fast):
        r = driver(a6_alg, max_n=5)
        assert not r.terminated and "indistinguishable" in r.cap_note
        assert "max_n = 5 reached: windows 2..5 closed" in r.cap_note


FIELD_FIXTURES = ["a2.alg", "a3_relation.alg", "a4_abc.alg", "a6_relations.alg",
                  "cyc2.alg", "d4.alg", "point.alg", "syzygy_cycle.alg"]
# seconds per sgldim run; test_large_dynkin_fixtures_first_windows pins them
LARGE_FIXTURES = ["d8_linear.alg", "e6.alg", "e7.alg"]


def test_sgldim_agrees_over_q_gf2_gf3(fixtures_dir):
    # the answer is field-independent on these inputs: the window table,
    # s.gl.dim, m0 and witness over Q must equal those over GF(2) and GF(3)
    from cnproj.algfile import parse_algebra_file

    names = sorted(p.name for p in fixtures_dir.glob("*.alg") if p.name != "bad_key.alg")
    assert names == sorted(FIELD_FIXTURES + LARGE_FIXTURES)
    for name in FIELD_FIXTURES:
        text = (fixtures_dir / name).read_text(encoding="utf-8")
        answers = {}
        for tag in ("rational", "gf2", "gf3"):
            swapped, count = re.subn(r"^field:.*$", f"field: {tag}", text, flags=re.M)
            assert count == 1, name
            r = compute_sgldim(parse_algebra_file(swapped).build())
            answers[tag] = (r.per_window, r.sgldim, r.m0, r.witness_line())
        assert answers["gf2"] == answers["rational"] == answers["gf3"], name


@pytest.mark.parametrize("name, rows", [("e6.alg", [(28, 10), (62, 12)]),
                                        ("d8_linear.alg", [(35, 11), (74, 12)]),
                                        ("e7.alg", [(38, 17), (91, 22)])])
def test_large_dynkin_fixtures_first_windows(fixtures_dir, name, rows):
    # (classes, violators) of windows 2 and 3, grown through one registry as
    # compute_sgldim grows them; the full runs take seconds, with class counts
    # 28/62/104/146 on E6 (s.gl.dim 3), 35/74/122/179/243/307 on D8 (s.gl.dim 5)
    # and 38/91/161/231 on E7 (s.gl.dim 3)
    from cnproj.algfile import load_algebra
    from cnproj.universe import _ShapeRegistry, enumerate_indecomposables

    _, alg = load_algebra(str(fixtures_dir / name))
    shapes = _ShapeRegistry()
    got = []
    for n in (2, 3):
        uni = enumerate_indecomposables(alg, n, _registry=shapes)
        assert uni.closed, n
        got.append((len(uni.representatives), len(uni.violators())))
    assert got == rows
