"""The command-line surface: formats, exit codes, presets, batching, reports."""

from __future__ import annotations

import json

import pytest

from affinesg import Params, apery_set, profile
from affinesg.cli import (
    MODE_VERIFIED,
    Report,
    build_report,
    main,
    render_table,
)
from conftest import WORKED_TABLES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- info ---


def test_info_text_fields(capsys):
    code, out, _ = run(capsys, "info", "--a", "3", "--b", "1", "--c", "5")
    assert code == 0
    fields = dict(
        line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
    )
    assert fields["minimal_generators"] == "5 16 49"
    assert fields["frobenius"] == "44"
    assert fields["genus"] == "27"
    assert fields["conductor"] == "45"
    assert fields["mode"] == "closed-form"


def test_info_json_document(capsys):
    code, out, _ = run(
        capsys, "info", "--a", "2", "--b", "3", "--c", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["frobenius"] == 21
    assert doc["minimal_generators"] == [4, 11, 25]
    assert doc["apery_set"] == [0, 11, 22, 25]
    assert doc["k_tilde"] == 3
    assert doc["embedding_dimension"] == 3
    assert doc["genus"] == 13
    assert doc["conductor"] == 22
    assert doc["meta"]["mode"] == "closed-form"


def test_text_and_json_numbers_agree(capsys):
    code, text_out, _ = run(capsys, "info", "--a", "3", "--b", "1", "--c", "5")
    code2, json_out, _ = run(
        capsys, "info", "--a", "3", "--b", "1", "--c", "5", "--format", "json"
    )
    assert code == code2 == 0
    doc = json.loads(json_out)
    fields = dict(
        line.split(": ", 1) for line in text_out.strip().splitlines() if ": " in line
    )
    for key in ("k_tilde", "frobenius", "genus", "conductor"):
        assert int(fields[key]) == doc[key]
    assert [int(x) for x in fields["minimal_generators"].split()] == doc[
        "minimal_generators"
    ]
    assert [int(x) for x in fields["apery_set"].split()] == doc["apery_set"]


def test_info_members_listing(capsys):
    code, out, _ = run(
        capsys, "info", "--a", "3", "--b", "1", "--c", "3", "--limit", "21",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["members_below"]["limit"] == 21
    assert doc["members_below"]["members"] == WORKED_TABLES[(3, 1, 3)]["members"]


def test_info_check_marks_the_mode(capsys):
    code, out, _ = run(
        capsys, "info", "--a", "3", "--b", "1", "--c", "3", "--check",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["meta"]["mode"] == MODE_VERIFIED


def test_info_check_disagreement_exits_one(capsys, monkeypatch):
    import affinesg.cli as cli

    monkeypatch.setattr(cli, "check_agreement", lambda p, bound_hint=None: ["planted"])
    code, out, err = run(capsys, "info", "--a", "3", "--b", "1", "--c", "3", "--check")
    assert code == 1
    assert out == ""
    assert "planted" in err


def test_info_without_params_or_input(capsys):
    code, _, err = run(capsys, "info")
    assert code == 2
    assert "needs --a/--b/--c or --input" in err


# --- validation and exit codes ---


def test_rejections_use_exit_two_with_distinct_messages(capsys):
    cases = [
        ("--a", "2", "--b", "2", "--c", "4"),
        ("--a", "3", "--b", "1", "--c", "1"),
        ("--a", "0", "--b", "1", "--c", "4"),
        ("--a", "3", "--b", "0", "--c", "4"),
    ]
    messages = set()
    for case in cases:
        code, out, err = run(capsys, "info", *case)
        assert code == 2
        assert out == ""
        messages.add(err.strip())
    assert len(messages) == 4


def test_gcd_rejection_names_cofiniteness(capsys):
    code, _, err = run(capsys, "info", "--a", "2", "--b", "2", "--c", "4")
    assert code == 2
    assert "closure is not co-finite" in err


def test_overflow_exits_three(capsys):
    code, out, err = run(
        capsys, "info", "--a", "10", "--b", "1", "--c", "100", "--bit-limit", "16"
    )
    assert code == 3
    assert out == ""
    assert "overflow" in err


def test_generous_bit_limit_still_succeeds(capsys):
    code, out, _ = run(
        capsys, "info", "--a", "10", "--b", "1", "--c", "100", "--bit-limit", "128",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["frobenius"] == profile(Params(10, 1, 100)).frobenius


# a ∈ {1, 2, 3, 10}, b ∈ {1, 2, 7}, c < 60, gcd(b, c) = 1
BIT_LIMIT_TRIPLES = [
    (1, 1, 2), (1, 2, 9), (1, 7, 59), (2, 1, 31), (2, 2, 15), (2, 7, 12),
    (3, 1, 40), (3, 2, 3), (3, 7, 44), (10, 1, 58), (10, 2, 27), (10, 7, 5),
]


@pytest.mark.parametrize("a,b,c", BIT_LIMIT_TRIPLES)
def test_info_bit_limit_trips_exactly_at_twice_the_apery_sum(capsys, a, b, c):
    # the widest checked value of a profile is 2 * sum(apery), the genus numerator
    edge = (2 * sum(apery_set(Params(a, b, c)))).bit_length()
    argv = ["info", "--a", str(a), "--b", str(b), "--c", str(c)]
    for bits in range(max(2, edge - 3), edge + 4):
        code, out, err = run(capsys, *argv, "--bit-limit", str(bits))
        assert code == (3 if edge >= bits else 0), bits
        assert (out == "") == (code == 3)


def test_member_bit_limit_covers_only_the_queried_classes(capsys):
    argv = ["--a", "10", "--b", "1", "--c", "100", "--bit-limit", "16"]
    assert run(capsys, "info", *argv)[0] == 3
    code, out, _ = run(capsys, "member", *argv, "--n", "1001")
    assert code == 0
    assert out.strip() == "1001 in class=1 least=1001"
    code, out, err = run(capsys, "member", *argv, "--n", "99")  # least = 9 * 10011
    assert code == 3
    assert out == ""
    assert "overflow" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "--a", "3", "--b", "1", "--c", "3"),
        ("table", "--a", "3", "--b", "1", "--c", "3"),
        ("preset", "thabit", "--n", "2"),
    ],
)
def test_negative_limit_is_refused_at_parse_time(capsys, argv):
    code, out, err = run(capsys, *argv, "--limit", "-4")
    assert code == 2
    assert out == ""
    assert "--limit" in err


def test_non_integer_flag_exits_two(capsys):
    code, _, _ = run(capsys, "info", "--a", "x", "--b", "1", "--c", "3")
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip()


# --- table ---


def parse_table(out):
    values, marked = [], []
    for token in out.split():
        token = token.strip()
        if token.endswith("*"):
            marked.append(int(token[:-1]))
            values.append(int(token[:-1]))
        else:
            values.append(int(token))
    return sorted(values), sorted(marked)


def test_table_matches_worked_grids(capsys):
    for (a, b, c), table in WORKED_TABLES.items():
        code, out, _ = run(
            capsys, "table", "--a", str(a), "--b", str(b), "--c", str(c),
            "--limit", str(table["limit"]),
        )
        assert code == 0
        values, marked = parse_table(out)
        assert values == table["members"]
        assert marked == sorted(table["marked"])


def test_table_default_limit_is_conductor_plus_seed(capsys):
    code, out, _ = run(capsys, "table", "--a", "3", "--b", "1", "--c", "3")
    assert code == 0
    values, _ = parse_table(out)
    assert values == WORKED_TABLES[(3, 1, 3)]["members"]  # conductor 18 + 3 = 21


def test_table_rows_follow_residues(capsys):
    code, out, _ = run(
        capsys, "table", "--a", "2", "--b", "3", "--c", "4", "--limit", "28"
    )
    rows = out.splitlines()
    assert len(rows) == 4
    for r, row in enumerate(rows):
        for token in row.split():
            assert int(token.rstrip("*")) % 4 == r


def test_render_table_color_toggle():
    prof = profile(Params(3, 1, 3))
    plain = render_table(prof, 21, color=False)
    colored = render_table(prof, 21, color=True)
    assert "\x1b[1m" not in plain
    assert "\x1b[1m" in colored
    assert "3*" in plain and "10*" in plain


def test_color_env_var_disables_highlighting(monkeypatch):
    import affinesg.cli as cli

    monkeypatch.setattr(cli.sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("SEMIGROUP_NO_COLOR", raising=False)
    assert cli._use_color() is True
    monkeypatch.setenv("SEMIGROUP_NO_COLOR", "1")
    assert cli._use_color() is False


# --- member ---


def test_member_verdicts(capsys):
    code, out, _ = run(
        capsys, "member", "--a", "3", "--b", "1", "--c", "3", "--n", "16"
    )
    assert code == 0
    assert out.strip() == "16 in class=1 least=10"

    code, out, _ = run(
        capsys, "member", "--a", "3", "--b", "1", "--c", "3", "--n", "17"
    )
    assert code == 1
    assert out.strip() == "17 out class=2 least=20"


def test_member_zero_is_always_in(capsys):
    code, out, _ = run(
        capsys, "member", "--a", "2", "--b", "3", "--c", "4", "--n", "0"
    )
    assert code == 0
    assert out.startswith("0 in")


def test_member_mixed_queries_exit_one(capsys):
    code, out, _ = run(
        capsys, "member", "--a", "3", "--b", "1", "--c", "3",
        "--n", "16", "--n", "17",
    )
    assert code == 1
    assert len(out.strip().splitlines()) == 2


def test_member_json(capsys):
    code, out, _ = run(
        capsys, "member", "--a", "3", "--b", "1", "--c", "3", "--n", "16",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [{"n": 16, "member": True, "class": 1, "least": 10}]


def test_member_negative_query_exits_two(capsys):
    code, _, err = run(
        capsys, "member", "--a", "3", "--b", "1", "--c", "3", "--n", "-1"
    )
    assert code == 2
    assert "n >= 0" in err


# --- gaps ---


def test_gaps_text(capsys):
    code, out, _ = run(capsys, "gaps", "--a", "3", "--b", "1", "--c", "3")
    assert code == 0
    assert out.strip() == "1 2 4 5 7 8 11 14 17"


def test_gaps_json_includes_the_list(capsys):
    code, out, _ = run(
        capsys, "gaps", "--a", "3", "--b", "1", "--c", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gaps"] == [1, 2, 4, 5, 7, 8, 11, 14, 17]
    assert doc["genus"] == len(doc["gaps"])


def test_gaps_cap_exits_two(capsys):
    code, _, err = run(
        capsys, "gaps", "--a", "3", "--b", "1", "--c", "3", "--max-frobenius", "10"
    )
    assert code == 2
    assert "cap" in err


# --- preset ---


def test_thabit_preset_equals_plain_info(capsys):
    code1, out1, _ = run(capsys, "preset", "thabit", "--n", "2")
    code2, out2, _ = run(capsys, "info", "--a", "2", "--b", "1", "--c", "11")
    assert code1 == code2 == 0
    assert out1 == out2


def test_mersenne_preset_equals_plain_info(capsys):
    code1, out1, _ = run(capsys, "preset", "mersenne", "--n", "3")
    code2, out2, _ = run(capsys, "info", "--a", "2", "--b", "1", "--c", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_mersenne_preset_rejects_unit_index(capsys):
    code, _, err = run(capsys, "preset", "mersenne", "--n", "1")
    assert code == 2
    assert "mersenne" in err


def test_thabit_preset_rejects_zero_index(capsys):
    code, _, err = run(capsys, "preset", "thabit", "--n", "0")
    assert code == 2
    assert "thabit" in err


# --- verify ---


def test_verify_single_triple_passes(capsys):
    code, out, _ = run(capsys, "verify", "--a", "3", "--b", "1", "--c", "3")
    assert code == 0
    assert "checked: 1" in out
    assert "failed: 0" in out


def test_verify_skips_invalid_triples(capsys):
    code, out, _ = run(capsys, "verify", "--a", "2", "--b", "2", "--c", "4")
    assert code == 0
    assert "checked: 0" in out
    assert "skipped: 1" in out


def test_verify_small_ranges(capsys):
    code, out, _ = run(
        capsys, "verify", "--a", "1..2", "--b", "1..2", "--c", "2..6",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["checked"] + doc["skipped"] == 2 * 2 * 5
    assert doc["first_failure"] is None


def test_verify_requires_ranges_or_input(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "ranges" in err


def test_verify_reports_first_counterexample(capsys, monkeypatch):
    import affinesg.cli as cli

    monkeypatch.setattr(
        cli, "check_agreement", lambda p, bound_hint=None: ["frobenius: planted"]
    )
    code, out, _ = run(capsys, "verify", "--a", "3", "--b", "1", "--c", "3..4")
    assert code == 1
    assert "failed: 2" in out
    assert "first_failure: a=3 b=1 c=3 frobenius: planted" in out


def test_verify_bad_range_syntax_exits_two(capsys):
    code, _, _ = run(capsys, "verify", "--a", "4..1", "--b", "1", "--c", "3")
    assert code == 2


# --- CSV batch input ---


def test_verify_csv_batch(tmp_path, capsys):
    path = tmp_path / "triples.csv"
    path.write_text("a,b,c\n3,1,3\n2,3,4\n2,2,4\n")
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert "checked: 2" in out
    assert "skipped: 1" in out


def test_verify_csv_malformed_row_exits_two(capsys, tmp_path):
    path = tmp_path / "triples.csv"
    path.write_text("a,b,c\n3,1,3\nnope,1,3\n")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert "checked: 1" in out
    assert "skipped:" in err


def test_verify_csv_missing_header_exits_two(capsys, tmp_path):
    path = tmp_path / "triples.csv"
    path.write_text("x,y,z\n3,1,3\n")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert "header" in err


@pytest.mark.parametrize("command", ["info", "verify"])
def test_missing_input_file_exits_two(capsys, tmp_path, command):
    code, out, err = run(capsys, command, "--input", str(tmp_path / "missing.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "missing.csv" in err


def test_info_batch_refuses_check(capsys, tmp_path):
    path = tmp_path / "triples.csv"
    path.write_text("a,b,c\n3,1,3\n")
    code, out, err = run(capsys, "info", "--input", str(path), "--check")
    assert code == 2
    assert out == ""
    assert "verify --input" in err


def test_info_csv_batch(tmp_path, capsys):
    path = tmp_path / "triples.csv"
    path.write_text("a,b,c\n3,1,3\n3,1,5\n")
    code, out, _ = run(capsys, "info", "--input", str(path), "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert [d["frobenius"] for d in docs] == [17, 44]


def test_info_csv_invalid_row_is_reported_and_skipped(tmp_path, capsys):
    path = tmp_path / "triples.csv"
    path.write_text("a,b,c\n3,1,3\n2,2,4\n")
    code, out, err = run(capsys, "info", "--input", str(path), "--format", "json")
    assert code == 2
    assert "skipped" in err
    assert [d["frobenius"] for d in json.loads(out)] == [17]


# --- reports ---


def test_report_round_trips_through_json():
    p = Params(3, 1, 5)
    for rep in (
        build_report(p),
        build_report(p, with_gaps=True),
        build_report(p, limit=50),
        build_report(p, with_gaps=True, limit=50, mode=MODE_VERIFIED),
    ):
        assert Report.from_json(rep.to_json()) == rep


def test_report_wire_names_are_stable():
    doc = build_report(Params(2, 3, 4), with_gaps=True).to_dict()
    assert set(doc) == {
        "a", "b", "c", "k_tilde", "embedding_dimension", "minimal_generators",
        "apery_set", "frobenius", "genus", "conductor", "gaps", "meta",
    }
