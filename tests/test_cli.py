import importlib.util
import json
import pathlib
import time
from collections import Counter

import pytest

from cnproj.algfile import parse_algebra_file, serialize_algebra_file
from cnproj.checks import CheckReport, d_squared_entry, oracle_entry, split_closure_entry
from cnproj.cli import main
from cnproj.errors import AlgebraFileError


def path(fixtures_dir, name):
    return str(fixtures_dir / name)


def test_round_trip(fixtures_dir):
    for name in ("a3_relation.alg", "a6_relations.alg", "a2.alg", "point.alg",
                 "d4.alg", "a4_abc.alg", "cyc2.alg", "syzygy_cycle.alg"):
        text = (fixtures_dir / name).read_text()
        model = parse_algebra_file(text)
        again = parse_algebra_file(serialize_algebra_file(model))
        assert model == again


def test_parse_errors():
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("vertices: 1\nfrobnicate: 2\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("arrow a: 1 -> 2\n")  # no vertices
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("vertices: 1 2\nfield: gf5\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("vertices: 1 2\nrelation: a\n")


def test_sgldim_a3(fixtures_dir, capsys):
    rc = main(["sgldim", path(fixtures_dir, "a3_relation.alg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "s.gl.dim = 2; m0 = 4" in out
    assert "witness: P3 -> P2 -> P1" in out


def test_sgldim_point(fixtures_dir, capsys):
    rc = main(["sgldim", path(fixtures_dir, "point.alg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "s.gl.dim = 0" in out


def test_sgldim_cap_exit(fixtures_dir, capsys):
    rc = main(["sgldim", path(fixtures_dir, "a3_relation.alg"), "--max-n", "3"])
    assert rc == 2
    assert "indistinguishable" in capsys.readouterr().out


def test_sgldim_infinite_gldim_exits_at_once(fixtures_dir, capsys):
    rc = main(["sgldim", path(fixtures_dir, "cyc2.alg")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "gl.dim is infinite" in out and "max_n - 2 = 14" in out


def test_sgldim_syzygy_cycle_exits_at_once(fixtures_dir, capsys):
    # the projective resolutions of this algebra's simples never end; the
    # path walk sees the syzygy cycle at once
    start = time.perf_counter()
    rc = main(["sgldim", path(fixtures_dir, "syzygy_cycle.alg")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "gl.dim is infinite" in capsys.readouterr().out


def _gf2_copy(fixtures_dir, tmp_path, name):
    out = tmp_path / name.replace(".alg", "_gf2.alg")
    out.write_text((fixtures_dir / name).read_text().replace("rational", "gf2"))
    return str(out)


def _forbid_enumeration(monkeypatch):
    from cnproj import arquiver, checks, sgldim

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before the field check")

    for mod in (arquiver, checks, sgldim):
        monkeypatch.setattr(mod, "enumerate_indecomposables", no_enumeration)


def test_ar_quiver_over_gf2_fails_before_enumerating(fixtures_dir, tmp_path, monkeypatch,
                                                     capsys):
    _forbid_enumeration(monkeypatch)
    rc = main(["ar-quiver", _gf2_copy(fixtures_dir, tmp_path, "a2.alg"), "--n", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "CharacteristicUnsupported: AR quivers need characteristic 0" in err


def test_derived_quiver_over_gf2_fails_before_enumerating(fixtures_dir, tmp_path, monkeypatch,
                                                          capsys):
    _forbid_enumeration(monkeypatch)
    rc = main(["derived-quiver", _gf2_copy(fixtures_dir, tmp_path, "a3_relation.alg")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "CharacteristicUnsupported: AR quivers need characteristic 0" in err


def test_check_over_gf2_fails_before_enumerating(fixtures_dir, tmp_path, monkeypatch, capsys):
    _forbid_enumeration(monkeypatch)
    rc = main(["check", _gf2_copy(fixtures_dir, tmp_path, "a3_relation.alg"), "--n", "4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "CharacteristicUnsupported: AR quivers need characteristic 0" in err


def test_parse_error_exit(fixtures_dir, capsys):
    rc = main(["sgldim", path(fixtures_dir, "bad_key.alg")])
    assert rc == 1


def test_usage_error_exit(fixtures_dir):
    rc = main(["derived-quiver", path(fixtures_dir, "a2.alg"),
               "--t-min", "2", "--t-max", "1"])
    assert rc == 1


def test_check_bound_below_one_is_a_usage_error(fixtures_dir, monkeypatch, capsys):
    _forbid_enumeration(monkeypatch)
    rc = main(["check", path(fixtures_dir, "a3_relation.alg"), "--n", "3",
               "--oracle", "gf2", "--bound", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "usage error: --bound must be >= 1" in captured.err
    assert "FAIL" not in captured.out


def test_sgldim_max_n_below_two_is_a_usage_error(fixtures_dir, monkeypatch, capsys):
    _forbid_enumeration(monkeypatch)
    rc = main(["sgldim", path(fixtures_dir, "point.alg"), "--max-n", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "usage error: --max-n must be >= 2" in captured.err
    assert "cap exceeded" not in captured.out


def test_ar_quiver_outputs(fixtures_dir, tmp_path, capsys):
    dot = tmp_path / "point.dot"
    js = tmp_path / "point.json"
    rc = main(["ar-quiver", path(fixtures_dir, "point.alg"), "--n", "2",
               "--dot", str(dot), "--json", str(js)])
    assert rc == 0
    text = dot.read_text()
    solid = [ln for ln in text.splitlines() if " -> " in ln and "dashed" not in ln]
    nodes = [ln for ln in text.splitlines() if "[label=" in ln and " -> " not in ln
             and "shape" not in ln]
    dashed = [ln for ln in text.splitlines() if "dashed" in ln]
    assert len(nodes) == 3 and len(solid) == 2 and len(dashed) == 1
    doc = json.loads(js.read_text())
    assert doc["schemaVersion"] == 1
    payload = doc["payload"]
    assert len(payload["vertices"]) == 3
    assert len(payload["arrows"]) == 2
    assert len(payload["tau"]) == 1
    # dot and json describe the same vertex and edge sets
    json_labels = sorted(v["label"] for v in payload["vertices"])
    dot_labels = sorted(ln.split('label="')[1].split('"')[0].split(" [")[0]
                        for ln in nodes)
    assert json_labels == dot_labels


def test_dot_deterministic(fixtures_dir, tmp_path):
    p1 = tmp_path / "a.dot"
    p2 = tmp_path / "b.dot"
    for p in (p1, p2):
        rc = main(["ar-quiver", path(fixtures_dir, "a2.alg"), "--n", "2",
                   "--dot", str(p)])
        assert rc == 0
    assert p1.read_bytes() == p2.read_bytes()


def _golden_cases():
    """CASES of scripts/regen_goldens.py, so the test and the script cannot drift."""
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "regen_goldens.py"
    spec = importlib.util.spec_from_file_location("regen_goldens", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.CASES


def test_golden_dot_files(fixtures_dir, tmp_path):
    golden_dir = fixtures_dir.parent / "golden"
    cases = _golden_cases()
    assert sorted(name for _, _, name in cases) == sorted(p.name for p in golden_dir.glob("*.dot"))
    for alg_name, n, golden_name in cases:
        out = tmp_path / golden_name
        rc = main(["ar-quiver", path(fixtures_dir, alg_name), "--n", str(n),
                   "--dot", str(out)])
        assert rc == 0
        assert out.read_bytes() == (golden_dir / golden_name).read_bytes(), golden_name


def test_derived_quiver_a2(fixtures_dir, tmp_path, capsys):
    dot = tmp_path / "derived.dot"
    rc = main(["derived-quiver", path(fixtures_dir, "a2.alg"),
               "--t-min", "-1", "--t-max", "1", "--dot", str(dot)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "15 vertices" in out
    assert dot.exists()


def test_derived_quiver_eta_zero(fixtures_dir, capsys):
    rc = main(["derived-quiver", path(fixtures_dir, "point.alg")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "EtaZero" in out


def test_check_passes(fixtures_dir, capsys):
    rc = main(["check", path(fixtures_dir, "a2.alg"), "--n", "3",
               "--oracle", "gf2", "--bound", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "oracle equivalence" in out


@pytest.mark.parametrize("n, bound, inside, outside", [(2, 2, 18, 2), (3, 1, 26, 10)])
def test_oracle_entry_compares_the_classes_within_the_bound(fixtures_dir, n, bound, inside,
                                                            outside):
    # d4 has classes with a 3-summand cell, such as P4 -> P1+P2+P3, which the
    # oracle cannot list at these bounds; `check --n 3` (bound 2) runs in ci.sh
    from cnproj.algfile import load_algebra
    from cnproj.universe import brute_force_indecomposables, enumerate_indecomposables

    _, alg = load_algebra(path(fixtures_dir, "d4.alg"))
    engine = enumerate_indecomposables(alg, n)
    oracle = brute_force_indecomposables(alg, n, bound, 2)
    entry = oracle_entry(engine, oracle, bound)
    assert entry.ok
    assert entry.detail == (f"engine {inside} vs oracle {inside} within the bound; "
                            f"{outside} engine classes outside it")
    # an engine that misses one class within the bound fails
    reps = engine.representatives
    del reps[max(i for i, rep in enumerate(reps) if max(map(len, rep.cells)) <= bound)]
    entry = oracle_entry(engine, oracle, bound)
    assert not entry.ok
    assert entry.detail.startswith(f"engine {inside - 1} vs oracle {inside} within the bound")


@pytest.mark.parametrize("name, n", [("a3_relation.alg", 4), ("a6_relations.alg", 4),
                                     ("d4.alg", 3), ("a4_abc.alg", 3), ("cyc2.alg", 3)])
def test_split_closure_entry_passes(fixtures_dir, name, n):
    from cnproj.algfile import load_algebra
    from cnproj.universe import enumerate_indecomposables

    _, alg = load_algebra(path(fixtures_dir, name))
    entry = split_closure_entry(enumerate_indecomposables(alg, n))
    assert entry.ok and entry.detail.endswith("; every summand is a class")


@pytest.mark.parametrize("name, n", [("a3_relation.alg", 4), ("d4.alg", 3)])
def test_split_closure_entry_names_a_dropped_class(fixtures_dir, name, n):
    # a closed universe without the translates of one non-seed shape fails the
    # entry, which names that shape and nothing else; every shape is tried
    from cnproj.algfile import load_algebra
    from cnproj.universe import Universe, enumerate_indecomposables

    _, alg = load_algebra(path(fixtures_dir, name))
    uni = enumerate_indecomposables(alg, n)
    shapes = uni.shapes.reps
    seeds = 2 * len(alg.quiver.vertices)
    assert len(shapes) > seeds
    for sid in range(seeds, len(shapes)):
        cut = Universe(alg, n, uni.shapes, closed=True)
        for s, lo in uni.classes:
            if s != sid:
                cut.place(s, lo)
        entry = split_closure_entry(cut)
        assert not entry.ok
        assert entry.detail.endswith(f"; summands outside the universe: {shapes[sid].label()}")


def test_check_reuses_the_sgldim_window(a3_alg, monkeypatch):
    # a3 has eta = 2 and m0 = 4: window 3 is among the windows compute_sgldim
    # enumerated, window 5 runs the cross-window check over windows 4 and 5
    from cnproj import arquiver, checks, sgldim
    from cnproj.checks import run_check_battery

    enumerated, built = Counter(), Counter()
    real_enumerate = sgldim.enumerate_indecomposables
    real_build = arquiver.build_ar_quiver

    def counting_enumerate(alg, m, *args, **kwargs):
        enumerated[m] += 1
        return real_enumerate(alg, m, *args, **kwargs)

    def counting_build(alg, m, *args, **kwargs):
        built[m] += 1
        return real_build(alg, m, *args, **kwargs)

    for mod in (arquiver, checks, sgldim):
        monkeypatch.setattr(mod, "enumerate_indecomposables", counting_enumerate)
    for mod in (arquiver, checks):
        monkeypatch.setattr(mod, "build_ar_quiver", counting_build)
    contexts = []
    real_init = arquiver._Ctx.__init__
    monkeypatch.setattr(arquiver._Ctx, "__init__",
                        lambda self, uni: contexts.append(uni) or real_init(self, uni))
    for n in (3, 5):
        enumerated.clear()
        built.clear()
        contexts.clear()
        assert run_check_battery(a3_alg, n).ok()
        assert sorted(enumerated) == list(range(2, max(n, 4) + 1))
        assert set(enumerated.values()) == {1}
        assert sorted(built) == sorted({n, 3}) and set(built.values()) == {1}
        # the factorisation-test entry reuses the build's Hom table
        assert len(contexts) == len(built)


@pytest.mark.parametrize("alg_name, n, reason", [
    ("point_alg", 2, "skipped: EtaZero (semisimple case, eta = 0)"),
    ("a3_alg", 3, "skipped: needs n >= eta + 2 (n = 3, eta = 2)"),
])
def test_check_names_why_cross_window_stability_is_skipped(request, alg_name, n, reason):
    from cnproj.checks import run_check_battery

    report = run_check_battery(request.getfixturevalue(alg_name), n)
    entry, = (e for e in report.entries if e.name.startswith("cross-window stability"))
    assert report.ok() and entry.detail == reason


def test_check_detects_corrupted_differential(point_alg):
    # build a complex that violates d^2 = 0 by bypassing validation, then make
    # sure the battery's d^2 checker flags it (the CLI maps that to exit 3)
    from cnproj.complexes import Complex
    from cnproj.universe import enumerate_indecomposables

    uni = enumerate_indecomposables(point_alg, 3)
    e = point_alg.unit(1)
    corrupt = Complex(point_alg, [(1,), (1,), (1,)], [[[e]], [[e]]], check=False)
    uni.representatives.append(corrupt)
    entry = d_squared_entry(uni)
    assert not entry.ok
    report = CheckReport([entry])
    assert not report.ok()
    uni.representatives.pop()


def test_seedless_flag_accepted(fixtures_dir, capsys):
    rc = main(["sgldim", path(fixtures_dir, "point.alg"), "--seedless"])
    assert rc == 0


def test_check_exit_three_on_failure(fixtures_dir, monkeypatch, capsys):
    from cnproj import cli as cli_mod
    from cnproj.checks import CheckEntry, CheckReport

    def fake_battery(alg, n, oracle=None, bound=2):
        return CheckReport([CheckEntry("injected failure", False, "negative test")])

    monkeypatch.setattr(cli_mod, "run_check_battery", fake_battery)
    rc = cli_mod.main(["check", path(fixtures_dir, "a2.alg"), "--n", "2"])
    assert rc == 3
    assert "FAIL" in capsys.readouterr().out
