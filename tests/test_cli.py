import json

from liftdom.cli import main
from liftdom.laws import REGISTRY, Bounds


def test_check_single_law(capsys):
    assert main(["check", "kz-adjunction"]) == 0
    out = capsys.readouterr().out
    assert "kz-adjunction" in out and "PASS" in out


def test_check_unknown_law(capsys):
    assert main(["check", "definitely-not-a-law"]) == 2
    assert "unknown law" in capsys.readouterr().err


def test_check_json(capsys):
    assert main(["check", "nonboolean-lift", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["law"] == "nonboolean-lift"
    assert payload[0]["status"] == "pass"
    assert {"objects", "status", "witness"} == set(payload[0]["instances"][0])


def test_check_backend_filter(capsys):
    assert main(["check", "monoidal-adjunction", "--backend", "presheaf"]) == 2
    out = capsys.readouterr().out
    assert "n/a" in out


def test_check_max_size(capsys):
    assert main(["check", "kz-adjunction", "--max-size", "2"]) == 0
    out = capsys.readouterr().out
    assert "genP3" not in out


def test_empty_family_is_unavailable(capsys):
    # no pointed poset has at most 0 elements: a family that checked no case
    # must not read as a pass
    assert main(["check", "strict-iff-hom", "--max-size", "0"]) == 2
    out = capsys.readouterr().out
    assert "[UNAVAILABLE] strict-iff-hom" in out
    assert "n/a  all maps between pointed posets ≤ 0  -- no cases within the bounds" in out


def test_check_max_size_keeps_other_bounds(capsys, monkeypatch):
    law = REGISTRY["kz-adjunction"]
    custom = Bounds(max_size=4, competing=2, apex=3, base_stages=1)
    monkeypatch.setattr(law, "bounds", custom)
    assert main(["check", "kz-adjunction", "--max-size", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["bounds"] == {**custom.as_dict(), "max_size": 2}


def test_lift_and_smash(capsys):
    assert main(["lift", "C2"]) == 0
    assert "3 elements" in capsys.readouterr().out
    assert main(["smash", "C3", "C3"]) == 0
    assert "5 elements" in capsys.readouterr().out
    assert main(["tensor", "C2", "C2"]) == 0
    assert "2 elements" in capsys.readouterr().out
    assert main(["hom", "C2", "C3"]) == 0
    capsys.readouterr()


def test_lift_internal_poset(capsys):
    assert main(["lift", "IP1"]) == 0
    out = capsys.readouterr().out
    assert "stage s1" in out and "stage s0" in out


def test_mixed_backends_rejected(capsys):
    assert main(["smash", "C2", "IP1"]) == 2
    assert "same backend" in capsys.readouterr().err


def test_model_file(tmp_path, capsys):
    f = tmp_path / "m.liftdom"
    f.write_text("poset P { elems a b ; leq a<=b }\n")
    assert main(["lift", "P", "--model", str(f)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.liftdom"
    bad.write_text("poset P { elems a b c ; leq a<=b b<=c }\n")
    assert main(["lift", "P", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "transitivity" in err


def test_export_dot(capsys):
    assert main(["export-dot", "C2"]) == 0
    out = capsys.readouterr().out
    assert out.count("label") == 2 and out.count("->") == 1
    assert main(["export-dot", "IP1"]) == 0
    out = capsys.readouterr().out
    assert "cluster_0" in out and "cluster_1" in out


def test_unresolved_object(capsys):
    assert main(["lift", "NOPE"]) == 2
    assert "unresolved" in capsys.readouterr().err


def test_search_oq1_bounded(capsys):
    # a degenerate search: no presheaf bases, classical lane only
    assert main(["search-oq1", "--max-base", "0", "--max-carrier", "4"]) == 0
    out = capsys.readouterr().out
    assert "search-oq1" in out and "0 failures" in out


def test_construction_error_exits_2(tmp_path, capsys):
    # a model the constructions refuse is an error, not a found failure
    f = tmp_path / "m.liftdom"
    f.write_text("poset A2 { elems a b ; leq }\nposet C2 { elems c0 c1 ; leq c0<=c1 }\n")
    for cmd in ("smash", "hom"):
        assert main([cmd, "A2", "C2", "--model", str(f)]) == 2
        captured = capsys.readouterr()
        assert "pointedness" in captured.err and "Traceback" not in captured.err


def test_negative_bound_is_unavailable(capsys):
    assert main(["check", "kz-adjunction", "--max-size", "-1"]) == 2
    out = capsys.readouterr().out
    assert "[UNAVAILABLE] kz-adjunction" in out and "requested bounds are negative" in out


def test_export_dot_every_model_name(capsys):
    # every name either draws or is refused in one line; a presheaf draws as
    # stage clusters, a base is refused
    from liftdom.model import default_model

    codes = {}
    for name in default_model().names():
        codes[name] = main(["export-dot", name])
        err = capsys.readouterr().err
        assert codes[name] in (0, 2) and "Traceback" not in err
        assert codes[name] == 0 or len(err.splitlines()) == 1
    assert codes["PSH1"] == 0 and codes["B2"] == 2


def test_unreadable_model_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.liftdom")
    for argv in (
        ["check", "kz-adjunction"],
        ["lift", "C2"],
        ["smash", "C2", "C2"],
        ["tensor", "C2", "C2"],
        ["hom", "C2", "C2"],
        ["export-dot", "C2"],
    ):
        assert main(argv + ["--model", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("model error: ") and "missing.liftdom" in err and "Traceback" not in err


def test_negative_oq1_bound_is_unavailable(capsys):
    for flag in ("--max-base", "--max-stage", "--max-carrier"):
        assert main(["search-oq1", flag, "-1"]) == 2
        out = capsys.readouterr().out
        assert "[UNAVAILABLE] search-oq1" in out and "requested bounds are negative" in out
