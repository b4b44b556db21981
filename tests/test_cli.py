import contextlib
import csv
import io
import json
import os
import random
import threading
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from labelsplit import EvaluationReport, OrderingRelation, cli
from labelsplit.ingest import CsvFormatError, CsvSchema, read_csv
from labelsplit.cli import main

DATA = Path(__file__).parent / "data"
SMART_HOME = str(DATA / "smart_home.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evaluate_worked_example(capsys):
    code, out, _ = run(capsys, "evaluate", "--csv", SMART_HOME,
                       "--base-label", "Sensor", "--refined-label", "Activity",
                       "--alpha", "0.01", "--context-labels", "Living room motion")
    assert code == 0
    doc = json.loads(out)
    assert doc["useful"] is True
    assert doc["score"] == 1.0
    assert doc["m_tests"] == 4
    assert doc["corrected_alpha"] == 0.0025
    p_values = {t["relation"]: t["p"] for t in doc["tests"]}
    assert p_values["directly_precedes"] == pytest.approx(4.91e-5, rel=1e-2)
    assert p_values["directly_follows"] == 1.0
    dp = next(t for t in doc["tests"] if t["relation"] == "directly_precedes")
    assert dp["table"]["parent"] == [5, 16]
    assert doc["entropy"]["rig"] == 1.0
    assert doc["split_pairs"] == [{"parent": ["Bedroom motion"],
                                   "children": [["Getting up"], ["Tossing & turning"]]}]


def test_evaluate_without_input_is_usage_error(capsys):
    code, _, err = run(capsys, "evaluate")
    assert code == 1
    assert "usage" in err


def test_csv_schema_file(tmp_path, capsys):
    # same events, US date format and a custom timestamp column
    csv = tmp_path / "raw.csv"
    csv.write_text("Id,When,Sensor,Activity,case\n"
                   + "".join(f"{i},03/{11 + d:02d}/2015 0{h}:00,s{x},a{x},d{d}\n"
                             for i, (d, h, x) in enumerate(
                                 [(0, 1, 1), (0, 2, 2), (1, 1, 1), (1, 2, 2)], 1)))
    schema = tmp_path / "schema.cfg"
    schema.write_text("id_column=Id\ntimestamp_column=When\n"
                      "timestamp_format=%m/%d/%Y %H:%M\n"
                      "attribute_columns=Sensor,Activity,case\n")
    code, out, _ = run(capsys, "stats", "--csv", str(csv),
                       "--csv-schema", str(schema), "--case-key", "case",
                       "--base-label", "Sensor")
    assert code == 0
    rows = json.loads(out)["rows"]
    cell = {(r["relation"], r["b"][0], r["c"][0]): (r["pos"], r["neg"]) for r in rows}
    assert cell[("directly_precedes", "s1", "s2")] == (2, 0)


def _row_order_rows() -> list[str]:
    """Data rows of three homes over two days, with explicit ids (synthesized
    ones are row numbers, which would order equal times) and many events at
    each time of day."""
    rng = random.Random(11)
    rows = []
    for home in ("h1", "h2", "h3"):
        for day in (1, 2):
            for _ in range(14):
                minute = rng.randrange(0, 24 * 60, 90)
                rows.append(f"{len(rows)},2020-03-0{day} {minute // 60:02d}:{minute % 60:02d},"
                            f"{home},{rng.choice('abcde')},{rng.choice('xy')}")
    return rows


_ROW_ORDER_COMMANDS = (["scan"], ["evaluate", "--refined-label", "sensor,activity"],
                       ["stats", "--relations", ",".join(r.value for r in OrderingRelation)],
                       ["stats", "--format", "csv"])


def test_row_order_leaves_every_output_unchanged():
    # moving rows within the CSV changes neither the traces nor any output
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"

        def outputs(rows: list[str]) -> list[tuple[int, str]]:
            path.write_text("id,timestamp,home,sensor,activity\n" + "\n".join(rows) + "\n",
                            encoding="utf-8")
            out = []
            for command in _ROW_ORDER_COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()) as stdout:
                    code = main([*command, "--csv", str(path), "--base-label", "sensor",
                                 "--case-key", "home", "--calendar-key", "day",
                                 "--deterministic"])
                out.append((code, stdout.getvalue()))
            return out

        rows = _row_order_rows()
        expected = outputs(rows)
        assert [code for code, _ in expected] == [0] * len(_ROW_ORDER_COMMANDS)

        @settings(max_examples=20, deadline=None)
        @given(st.permutations(rows))
        def check(shuffled):
            assert outputs(shuffled) == expected
        check()


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_evaluate_identity_exits_zero(capsys):
    code, out, _ = run(capsys, "evaluate", "--csv", SMART_HOME,
                       "--base-label", "Sensor", "--refined-label", "Sensor")
    assert code == 0
    doc = json.loads(out)
    assert doc["useful"] is False
    assert doc["score"] == 0.0
    assert "refinement is not strict" in doc["notes"]


def test_evaluate_threshold_spec(capsys):
    code, out, _ = run(capsys, "evaluate", "--csv", SMART_HOME,
                       "--base-label", "Sensor",
                       "--threshold", "Bedroom motion,08:30,Tossing & turning,Getting up")
    assert code == 0
    doc = json.loads(out)
    assert doc["useful"] is True
    assert doc["score"] == 1.0


def test_evaluate_non_refinement_exits_three(tmp_path, capsys):
    # two traces with equal heart-rate labels but different sensors
    csv = tmp_path / "bad.csv"
    csv.write_text("id,timestamp,case,Sensor,HR\n"
                   "1,2020-01-01 00:00,A,x,70\n"
                   "2,2020-01-02 00:00,B,y,70\n")
    code, _, err = run(capsys, "evaluate", "--csv", str(csv),
                       "--base-label", "HR", "--refined-label", "Sensor")
    assert code == 0  # Sensor refines HR here (all HR equal)
    code, _, err = run(capsys, "evaluate", "--csv", str(csv),
                       "--base-label", "Sensor", "--refined-label", "HR")
    assert code == 3
    assert ("refined label 70 is observed under several coarse labels (x, y)"
            in err)


def test_evaluate_parse_error_exits_two(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("id,timestamp,Sensor\n1,not-a-date,x\n")
    code, _, err = run(capsys, "evaluate", "--csv", str(csv),
                       "--base-label", "Sensor", "--refined-label", "Sensor")
    assert code == 2
    assert "parse error" in err


def test_csv_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    # a byte that starts no UTF-8 sequence is a fault of the input file,
    # named with its path, not a usage error
    csv = tmp_path / "latin.csv"
    csv.write_bytes(b"id,timestamp,Sensor\n1,2020-01-01 00:00:00,\xaf\n")
    code, _, err = run(capsys, "scan", "--csv", str(csv), "--base-label", "Sensor")
    assert code == 2
    assert err == (f"parse error: cannot read {csv}: 'utf-8' codec can't decode byte 0xaf "
                   "in position 42: invalid start byte\n")


def test_quoted_csv_header_is_sniffed(tmp_path, capsys):
    # RFC-4180 allows every header name to be quoted
    csv = tmp_path / "quoted.csv"
    csv.write_text('"id","timestamp","case","act"\n'
                   "1,2020-01-01 01:00:00,c,a\n"
                   "2,2020-01-01 02:00:00,c,b\n")
    code, out, err = run(capsys, "stats", "--csv", str(csv), "--base-label", "act")
    assert code == 0, err
    cell = {(r["relation"], r["b"][0], r["c"][0]): (r["pos"], r["neg"])
            for r in json.loads(out)["rows"]}
    assert cell[("directly_precedes", "a", "b")] == (1, 0)
    assert cell[("directly_follows", "b", "a")] == (1, 0)


def test_evaluate_unknown_column_is_config_error(capsys):
    code, _, err = run(capsys, "evaluate", "--csv", SMART_HOME,
                       "--base-label", "NoSuch", "--refined-label", "Activity")
    assert code == 1
    assert err == "error: event '1' has no attribute 'NoSuch'\n"


def test_malformed_row_is_reported_before_an_unknown_label_column(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("id,timestamp,Sensor\n1,2020-01-01 00:00:00,x\n2,not-a-date,y\n")
    code, _, err = run(capsys, "evaluate", "--csv", str(csv),
                       "--base-label", "NoSuch", "--refined-label", "Sensor")
    assert code == 2
    assert err == "parse error: line 3: unparseable timestamp 'not-a-date'\n"


def test_scan_evaluates_every_label(capsys):
    code, out, _ = run(capsys, "scan", "--csv", SMART_HOME, "--base-label", "Sensor")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["candidates"]) == 2
    # the 05:00 median split does not match the 08:30 behavior boundary, so
    # neither candidate is useful on this small log; ties sort by description
    assert [c["useful"] for c in doc["candidates"]] == [False, False]
    assert "Bedroom motion" in doc["candidates"][0]["candidate"]
    assert all(c["m_tests"] == 4 for c in doc["candidates"])


def write_day_night_csv(path):
    """A log whose median-time split is genuinely useful: one 'x' per trace,
    morning ones followed by m1, evening ones by m2."""
    lines = ["id,timestamp,case,act"]
    n = 0
    for day in range(1, 11):
        n += 1
        lines.append(f"{n},2020-01-{day:02d} 04:{day - 1:02d}:00,d{day},x")
        n += 1
        lines.append(f"{n},2020-01-{day:02d} 06:00:00,d{day},m1")
    for day in range(11, 21):
        n += 1
        lines.append(f"{n},2020-01-{day:02d} 20:{day - 11:02d}:00,d{day},x")
        n += 1
        lines.append(f"{n},2020-01-{day:02d} 22:00:00,d{day},m2")
    path.write_text("\n".join(lines) + "\n")


def test_scan_finds_a_real_day_night_split(tmp_path, capsys):
    csv = tmp_path / "daynight.csv"
    write_day_night_csv(csv)
    code, out, _ = run(capsys, "scan", "--csv", str(csv), "--base-label", "act")
    assert code == 0
    doc = json.loads(out)
    by_name = {c["candidate"]: c for c in doc["candidates"]}
    top = doc["candidates"][0]
    assert "x@" in top["candidate"]
    assert top["useful"] is True
    assert top["score"] > 0.5
    # the markers always fire at the same clock time, so they are skipped
    assert any("m1" in s for s in doc["skipped_labels"])
    assert any("m2" in s for s in doc["skipped_labels"])


def test_scan_single_label_log(tmp_path, capsys):
    csv = tmp_path / "mono.csv"
    rows = "".join(f"{i},2020-01-01 0{i}:00,c,x\n" for i in range(1, 6))
    csv.write_text("id,timestamp,case,act\n" + rows)
    code, out, _ = run(capsys, "scan", "--csv", str(csv), "--base-label", "act")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["candidates"]) == 1
    assert doc["candidates"][0]["useful"] is False


def test_correction_flag_changes_significance_not_p(capsys):
    # at alpha 0.05 the 0.035 directly-precedes p of the bedroom median split
    # is significant uncorrected but not after Bonferroni
    _, out_b, _ = run(capsys, "scan", "--csv", SMART_HOME, "--base-label", "Sensor",
                      "--alpha", "0.05", "--correction", "bonferroni",
                      "--deterministic")
    _, out_n, _ = run(capsys, "scan", "--csv", SMART_HOME, "--base-label", "Sensor",
                      "--alpha", "0.05", "--correction", "none", "--deterministic")
    doc_b, doc_n = json.loads(out_b), json.loads(out_n)

    def by_candidate(doc):
        return {c["candidate"]: c for c in doc["candidates"]}

    cb, cn = by_candidate(doc_b), by_candidate(doc_n)
    assert set(cb) == set(cn)
    saw_flip = False
    for name in cb:
        ps_b = [t["p"] for t in cb[name]["tests"]]
        ps_n = [t["p"] for t in cn[name]["tests"]]
        assert ps_b == ps_n
        sig_b = [t["significant"] for t in cb[name]["tests"]]
        sig_n = [t["significant"] for t in cn[name]["tests"]]
        saw_flip = saw_flip or (sig_b != sig_n)
    assert saw_flip  # uncorrected alpha admits more significant tests here


def test_stats_dump_matches_sample_tables(capsys):
    code, out, _ = run(capsys, "stats", "--csv", SMART_HOME, "--base-label", "Activity",
                       "--b-labels", "Tossing & turning,Getting up",
                       "--c-labels", "Living room motion")
    assert code == 0
    rows = json.loads(out)["rows"]
    cell = {(r["relation"], r["b"][0]): (r["pos"], r["neg"]) for r in rows}
    assert cell[("directly_precedes", "Getting up")] == (5, 0)
    assert cell[("directly_precedes", "Tossing & turning")] == (0, 16)
    assert cell[("eventually_precedes", "Tossing & turning")] == (16, 0)
    assert cell[("directly_follows", "Getting up")] == (0, 5)
    assert len(rows) == 8  # 4 relations x 2 sources x 1 context


@pytest.mark.parametrize("flag", ["--b-labels", "--c-labels"])
def test_stats_unknown_label_names_are_refused(capsys, flag):
    code, out, err = run(capsys, "stats", "--csv", SMART_HOME, "--base-label", "Sensor",
                         flag, "Bedroom motoin", "--format", "csv")
    assert code == 1
    assert out == ""
    assert f"error: unknown label(s) in {flag}: Bedroom motoin" in err.splitlines()


def _write_named_sensors(path: Path) -> str:
    """A three-trace log whose sensors are named ``a,b``, ``say "hi"``, ``a``
    and ``c``."""
    names = ["a,b", 'say "hi"', "a", "c"]
    # each name at a different time of day in each trace, so scan splits it
    rows = [f'{i},2020-01-0{1 + i // 4}T0{i % 4 + i // 4}:00:00,d{i // 4},'
            f'"{name.replace(chr(34), 2 * chr(34))}"'
            for i, name in enumerate(names * 3)]
    path.write_text("id,timestamp,case,sensor\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("flag", ["--b-labels", "--c-labels"])
@pytest.mark.parametrize("value, names", [
    ('"a,b",c', {"a,b", "c"}),  # a quoted name holds a comma
    ('"say ""hi""", "a,b"', {'say "hi"', "a,b"}),  # a doubled quote is a quote
    (" a , c,", {"a", "c"}),  # plain names split as before
])
def test_stats_label_flags_read_one_csv_record(tmp_path, capsys, flag, value, names):
    csv_path = _write_named_sensors(tmp_path / "named.csv")
    code, out, err = run(capsys, "stats", "--csv", csv_path, "--base-label", "sensor",
                         "--format", "json", "--include-self", flag, value)
    assert code == 0, err
    column = "b" if flag == "--b-labels" else "c"
    assert {row[column][0] for row in json.loads(out)["rows"]} == names


def test_label_flags_split_an_unquoted_comma(tmp_path, capsys):
    csv_path = _write_named_sensors(tmp_path / "named.csv")
    code, out, err = run(capsys, "stats", "--csv", csv_path, "--base-label", "sensor",
                         "--b-labels", "a,b")
    assert code == 1 and out == ""
    assert "error: unknown label(s) in --b-labels: b" in err.splitlines()


def test_context_labels_read_one_csv_record(tmp_path, capsys):
    csv_path = _write_named_sensors(tmp_path / "named.csv")
    code, out, err = run(capsys, "scan", "--csv", csv_path, "--base-label", "sensor",
                         "--context-labels", '"a,b",c')
    assert code == 0, err
    contexts = {tuple(t["context"]) for r in json.loads(out)["candidates"] for t in r["tests"]}
    assert contexts == {("a,b",), ("c",)}


@pytest.mark.parametrize("multi, one", [
    (["evaluate", "--threshold",
      "Bedroom motion+Mountain Rd. 7,08:30,Tossing & turning,Getting up"],
     ["evaluate", "--threshold", "Bedroom motion,08:30,Tossing & turning,Getting up"]),
    (["scan", "--context-labels", "Living room motion+Mountain Rd. 7"],
     ["scan", "--context-labels", "Living room motion"]),
])
def test_a_label_is_named_by_its_text(capsys, multi, one):
    # the demo log has one address, so adding it to the base label names
    # the same events; a label is named by its parts joined with "+"
    def results(argv, base_label):
        code, out, err = run(capsys, *argv, "--csv", SMART_HOME, "--base-label", base_label,
                             "--deterministic")
        assert code == 0, err
        doc = json.loads(out)
        return [(r["m_tests"], r["useful"], r["score"],
                 [(t["relation"], t["table"], t["p"], t["significant"]) for t in r["tests"]])
                for r in doc.get("candidates", [doc])]

    expected = results(one, "Sensor")
    assert any(tests for _, _, _, tests in expected)
    assert results(multi, "Sensor,Address") == expected


def test_a_threshold_base_that_labels_no_event_exits_one(capsys):
    code, out, err = run(capsys, "evaluate", "--csv", SMART_HOME,
                         "--base-label", "Sensor,Address",
                         "--threshold", "Bedroom motion,08:30,Tossing & turning,Getting up")
    assert code == 1 and out == ""
    assert "error: unknown label(s) in --threshold: Bedroom motion" in err.splitlines()


@pytest.mark.parametrize("base_label, bedroom, living", [
    ("Sensor", "Bedroom motion", "Living room motion"),
    ("Sensor,Address", "Bedroom motion+Mountain Rd. 7", "Living room motion+Mountain Rd. 7"),
])
def test_a_threshold_child_named_like_a_label_is_that_label(capsys, base_label, bedroom,
                                                            living):
    # splitting events off under another label's name merges the two
    code, out, err = run(capsys, "evaluate", "--csv", SMART_HOME, "--base-label", base_label,
                         "--threshold", f"{bedroom},08:30,{living},Getting up")
    assert code == 3 and out == "", err
    assert f"refined label {living} is observed under several coarse labels" in err


def test_a_threshold_text_that_several_labels_share_exits_one(tmp_path, capsys):
    # labels (a+b, c) and (a, b+c) are both written a+b+c
    csv_path = tmp_path / "plus.csv"
    csv_path.write_text("id,timestamp,case,s,t\n1,2020-01-01T00:00:00,c,a+b,c\n"
                        "2,2020-01-01T01:00:00,c,a,b+c\n3,2020-01-01T02:00:00,c,z,z\n")
    code, out, err = run(capsys, "evaluate", "--csv", str(csv_path), "--base-label", "s,t",
                         "--threshold", "a+b+c,01:00,lo,hi")
    assert code == 1 and out == ""
    assert "error: --threshold names a text that several labels share" in err.splitlines()


def test_threshold_reads_one_csv_record(tmp_path, capsys):
    csv_path = _write_named_sensors(tmp_path / "named.csv")
    code, out, err = run(capsys, "evaluate", "--csv", csv_path, "--base-label", "sensor",
                         "--threshold", '"a,b", 01:30, early, late')
    assert code == 0, err
    assert json.loads(out)["split_pairs"] == [{"parent": ["a,b"],
                                               "children": [["early"], ["late"]]}]
    code, out, err = run(capsys, "evaluate", "--csv", csv_path, "--base-label", "sensor",
                         "--threshold", "a,b,01:30,early,late")
    assert code == 1 and out == ""
    assert "--threshold expects BASE,HH:MM,LOW,HIGH" in err


def test_stats_full_dump_row_count(capsys):
    code, out, _ = run(capsys, "stats", "--csv", SMART_HOME, "--base-label", "Activity")
    rows = json.loads(out)["rows"]
    a = 3  # Activity alphabet size
    assert len(rows) == 4 * a * (a - 1)


def test_stats_empty_log(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("id,timestamp,case,act\n")
    code, out, _ = run(capsys, "stats", "--csv", str(csv), "--base-label", "act")
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_stats_csv_format(capsys):
    code, out, _ = run(capsys, "stats", "--csv", SMART_HOME, "--base-label", "Sensor",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "relation,b,c,pos,neg"
    assert len(lines) == 1 + 4 * 2 * 1


def test_stats_csv_doubles_quotes_in_labels(tmp_path, capsys):
    csv_path = tmp_path / "quoted.csv"
    csv_path.write_text('id,timestamp,sensor\n'
                        '1,2015-03-11T01:00:00,"say ""hi"""\n'
                        '2,2015-03-11T02:00:00,"a,b"\n'
                        '3,2015-03-11T03:00:00,"say ""hi"""\n')
    code, out, _ = run(capsys, "stats", "--csv", str(csv_path), "--base-label", "sensor",
                       "--relations", "directly_follows", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["relation", "b", "c", "pos", "neg"]
    assert rows[1:] == [["directly_follows", "a,b", 'say "hi"', "1", "0"],
                        ["directly_follows", 'say "hi"', "a,b", "1", "1"]]


def test_csv_file_line_ends_are_read_as_written(tmp_path, capsys):
    # a quoted CRLF is data and a lone CR in an unquoted cell is an error,
    # through the CLI as for read_csv on the file's raw text
    header = "id,timestamp,s\r\n"
    quoted = header + '1,2020-01-01 00:00:00,"a\r\nb"\r\n2,2020-01-01 00:01:00,c\r\n'
    lone_cr = header + "1,2020-01-01 00:00:00,a\rb\r\n2,2020-01-01 00:01:00,c\r\n"
    schema = CsvSchema("timestamp", ("s",), "id")
    path = tmp_path / "quoted.csv"
    path.write_bytes(quoted.encode())
    code, out, _ = run(capsys, "stats", "--csv", str(path), "--base-label", "s",
                       "--format", "csv")
    assert code == 0
    labels = {row["b"] for row in csv.DictReader(io.StringIO(out, newline=""))}
    expected = read_csv(quoted, schema, ("s",)).log(None).interned.labels
    assert labels == {str(label) for label in expected} == {"a\r\nb", "c"}
    path = tmp_path / "lone_cr.csv"
    path.write_bytes(lone_cr.encode())
    with pytest.raises(CsvFormatError) as raised:
        read_csv(lone_cr, schema, ("s",))
    code, _, err = run(capsys, "stats", "--csv", str(path), "--base-label", "s")
    assert code == 2
    assert str(raised.value).startswith("line 2: new-line character seen")
    assert str(raised.value) in err


@pytest.mark.parametrize("cells, c_label, rows", [
    # (a+b, c) and (a, b+c) both join to a+b+c
    (["a+b,c", "z,z", "a,b+c"], "z+z",
     [['"a"+"b+c"', "0", "1"], ['"a+b"+"c"', "1", "0"]]),
    # quoting each part alone joins (x"+"y, z+) and (x, y"+"z+) both to
    # "x"+"y"+"z+"; the quotes inside a part are doubled
    (['"x""+""y",z+', "w,w", 'x,"y""+""z+"'], "w+w",
     [['"x"+"y""+""z+"', "0", "1"], ['"x""+""y"+"z+"', "1", "0"]]),
], ids=["plus", "quotes"])
def test_stats_csv_and_pretty_tell_labels_holding_plus_apart(tmp_path, capsys, cells,
                                                              c_label, rows):
    csv_path = tmp_path / "labels.csv"
    csv_path.write_text("id,timestamp,s,t\n" + "".join(
        f"{i},2015-03-11T0{i}:00:00,{cell}\n" for i, cell in enumerate(cells, 1)))
    flags = ["stats", "--csv", str(csv_path), "--base-label", "s,t",
             "--relations", "directly_precedes", "--c-labels", c_label]
    code, out, _ = run(capsys, *flags, "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out)))[1:] == [
        ["directly_precedes", b, c_label, pos, neg] for b, pos, neg in rows]
    code, out, _ = run(capsys, *flags, "--pretty")
    assert code == 0
    assert all(b in out for b, _, _ in rows)


def test_gen_candidates(capsys):
    code, out, _ = run(capsys, "gen-candidates", "--csv", SMART_HOME,
                       "--base-label", "Sensor")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["candidates"]) == 2
    bases = {c["base_label"][0] for c in doc["candidates"]}
    assert bases == {"Bedroom motion", "Living room motion"}


def test_convert_roundtrip(tmp_path, capsys):
    xes_path = tmp_path / "out.xes"
    code, _, _ = run(capsys, "convert", "--csv", SMART_HOME, "--base-label", "Sensor",
                     "--to", "xes", "--out", str(xes_path))
    assert code == 0
    code, out, _ = run(capsys, "stats", "--xes", str(xes_path))
    assert code == 0
    rows = json.loads(out)["rows"]
    cell = {(r["relation"], r["b"][0], r["c"][0]): (r["pos"], r["neg"]) for r in rows}
    assert cell[("directly_precedes", "Bedroom motion", "Living room motion")] == (5, 16)


def test_convert_to_csv(capsys):
    code, out, _ = run(capsys, "convert", "--csv", SMART_HOME, "--base-label", "Sensor",
                       "--to", "csv")
    assert code == 0
    assert out.startswith("id,timestamp,case,")
    assert len(out.strip().splitlines()) == 27


def test_repeated_header_name_exits_two(tmp_path, capsys):
    path = tmp_path / "repeated.csv"
    path.write_text("id,timestamp,case,case\n1,2020-01-01 00:00,TRACE-A,attr-value\n")
    code, out, err = run(capsys, "stats", "--csv", str(path))
    assert code == 2
    assert out == ""
    assert "header names column 'case' twice" in err


def test_deterministic_output_is_byte_identical(capsys):
    args = ("evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
            "--refined-label", "Activity", "--deterministic")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "generated_at" not in first


def test_runs_differ_only_in_generated_at(capsys):
    args = ("evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
            "--refined-label", "Activity")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    a, b = json.loads(first), json.loads(second)
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


@pytest.mark.parametrize("argv", [
    ("scan", "--base-label", "Sensor"),
    ("evaluate", "--base-label", "Sensor", "--refined-label", "Activity"),
])
def test_generated_at_is_the_last_key(capsys, argv):
    code, out, _ = run(capsys, *argv, "--csv", SMART_HOME)
    assert code == 0
    assert list(json.loads(out))[-1] == "generated_at"


def test_seed_flag_changes_nothing(capsys):
    base = ("evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
            "--refined-label", "Activity", "--deterministic")
    _, first, _ = run(capsys, *base)
    _, second, _ = run(capsys, *base, "--seed", "123")
    assert first == second


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.5\ndeterministic=true\n")
    _, out, _ = run(capsys, "evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
                    "--refined-label", "Activity", "--config", str(cfg))
    doc = json.loads(out)
    assert doc["corrected_alpha"] == 0.5 / 4
    assert "generated_at" not in json.dumps(doc)
    # an explicit flag wins over the config value
    _, out, _ = run(capsys, "evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
                    "--refined-label", "Activity", "--config", str(cfg),
                    "--alpha", "0.01")
    assert json.loads(out)["corrected_alpha"] == 0.0025
    _, out, _ = run(capsys, "evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
                    "--refined-label", "Activity", "--config", str(cfg),
                    "--alpha=0.01")
    assert json.loads(out)["corrected_alpha"] == 0.0025
    # an abbreviated flag is refused rather than losing to the config value
    code, out, err = run(capsys, "evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
                         "--refined-label", "Activity", "--config", str(cfg),
                         "--alph", "0.01")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --alph" in err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate=1\n")
    code, _, err = run(capsys, "evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
                       "--refined-label", "Activity", "--config", str(cfg))
    assert code == 1
    assert "frobnicate" in err


def test_config_keys_of_other_subcommands_are_ignored(tmp_path, capsys):
    base = ("evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
            "--refined-label", "Activity", "--deterministic")
    _, plain, _ = run(capsys, *base)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\nto=xes\ninclude-self=true\nb-labels=nope\n")
    code, out, err = run(capsys, *base, "--config", str(cfg))
    assert (code, out, err) == (0, plain, "")
    # --config and --help are no config keys, nor is an abbreviation
    for line in ("config=other.cfg", "help=true", "alph=0.5"):
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, *base, "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"unknown config key {line.split('=')[0]!r}" in err


_INPUT_FLAGS = ["--csv", "--xes", "--csv-schema", "--case-key", "--calendar-key", "--timezone",
                "--base-label", "--config", "--out", "--deterministic"]
# each subcommand's options, besides --help: the input flags and those it reads
_OPTIONS = {
    "evaluate": [*_INPUT_FLAGS, "--pretty", "--alpha", "--relations", "--correction",
                 "--context-labels", "--seed", "--refined-label", "--rules", "--threshold"],
    "scan": [*_INPUT_FLAGS, "--pretty", "--alpha", "--relations", "--correction",
             "--family-scope", "--context-labels", "--seed"],
    "stats": [*_INPUT_FLAGS, "--pretty", "--alpha", "--relations", "--b-labels", "--c-labels",
              "--include-self", "--format"],
    "gen-candidates": [*_INPUT_FLAGS, "--pretty"],
    "convert": [*_INPUT_FLAGS, "--to"],
}
# the options each subcommand took, and never read, when every subcommand
# took the same evaluation and output flags
_DROPPED = {
    "evaluate": ["--family-scope", "--json"],
    "scan": ["--json"],
    "stats": ["--correction", "--family-scope", "--context-labels", "--seed", "--json"],
    "gen-candidates": ["--alpha", "--relations", "--correction", "--family-scope",
                       "--context-labels", "--seed", "--json"],
    "convert": ["--alpha", "--relations", "--correction", "--family-scope",
                "--context-labels", "--seed", "--json", "--pretty"],
}
_BASE_RUNS = {"evaluate": ["evaluate", "--refined-label", "Sensor,Activity"], "scan": ["scan"],
              "stats": ["stats"], "gen-candidates": ["gen-candidates"],
              "convert": ["convert", "--to", "csv"]}


def test_each_subcommand_takes_only_the_flags_it_reads():
    options = {name: [option for action in parser._actions for option in action.option_strings
                      if option not in ("-h", "--help")]
               for name, parser in cli.build_parser().commands.items()}
    assert options == _OPTIONS
    assert sum(map(len, options.values())) == 75
    assert sum(map(len, _DROPPED.values())) == 98 - 75


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in _DROPPED.items()
                                           for flag in flags])
def test_a_dropped_flag_is_refused_and_its_config_key_ignored(tmp_path, capsys, command, flag):
    value = _option_values(tmp_path)[flag]
    common = [*_BASE_RUNS[command], "--csv", SMART_HOME, "--base-label", "Sensor",
              "--deterministic"]
    code, out, err = run(capsys, *common, *_argv({flag: value}))
    assert (code, out) == (1, "")
    assert f"error: unrecognized arguments: {flag}" in err
    code, plain, err = run(capsys, *common)
    assert code == 0, err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}={'true' if value is None else value}\n")
    code, out, err = run(capsys, *common, "--config", str(cfg))
    if flag == "--json":  # no subcommand defines it any more
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"error: unknown config key 'json' (in --config {cfg})"
    else:  # another subcommand defines it
        assert (code, out, err) == (0, plain, "")


def test_one_parser_serves_every_call_as_a_fresh_one(tmp_path, capsys):
    # main builds its parser once per process; calls of different
    # subcommands, with and without --config, interleaved, read as each
    # does with a parser of its own
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.5\nformat=csv\nto=xes\ninclude-self=true\n"
                   "b-labels=Bedroom motion\n")
    calls = [
        ("stats", "--base-label", "Sensor", "--config", str(cfg)),
        ("evaluate", "--base-label", "Sensor", "--refined-label", "Activity"),
        ("convert", "--base-label", "Sensor", "--config", str(cfg)),
        ("stats", "--base-label", "Sensor"),
        ("evaluate", "--base-label", "Sensor", "--refined-label", "Activity",
         "--config", str(cfg)),
        ("scan", "--base-label", "Sensor", "--alph", "0.5"),
        ("gen-candidates", "--base-label", "Sensor", "--config", str(cfg)),
        ("convert", "--base-label", "Sensor", "--to", "csv"),
        ("stats", "--base-label", "Sensor", "--config", str(cfg), "--format", "json"),
        ("scan", "--base-label", "Sensor", "--config", str(cfg)),
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv, "--csv", SMART_HOME, "--deterministic"))
    cli.build_parser.cache_clear()
    for order in (calls, calls[::-1]):
        shared = [run(capsys, *argv, "--csv", SMART_HOME, "--deterministic") for argv in order]
        assert shared == (fresh if order is calls else fresh[::-1])
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]


_RULES = "Activity = Getting up -> up\nSensor = Bedroom motion -> bed\ndefault -> living\n"
_SCHEMA = ("timestamp_column=timestamp\nid_column=id\n"
           "attribute_columns=case,Address,Sensor,Heart rate,Activity\n")


def _option_values(tmp_path: Path) -> dict[str, str | None]:
    """A value for each option of every subcommand, None for a switch, that
    changes the output of the base runs of the config-form test, or that
    would if the option had an effect."""
    (tmp_path / "rules.txt").write_text(_RULES)
    (tmp_path / "schema.cfg").write_text(_SCHEMA)
    return {
        "--csv": SMART_HOME, "--xes": str(DATA / "golden" / "convert.xes"),
        "--csv-schema": str(tmp_path / "schema.cfg"), "--case-key": "Address",
        "--calendar-key": "day", "--timezone": "Europe/Amsterdam", "--alpha": "0.2",
        "--relations": "directly_follows,length_two_loop", "--correction": "none",
        "--family-scope": "per_candidate_set",
        "--context-labels": '"Living room motion",Front door',
        "--json": None, "--pretty": None, "--deterministic": None, "--seed": "3",
        "--out": str(tmp_path / "out.txt"), "--base-label": "Sensor",
        "--refined-label": "Sensor,Activity", "--rules": str(tmp_path / "rules.txt"),
        "--threshold": "Bedroom motion,05:00,early,late",
        "--b-labels": "Bedroom motion", "--c-labels": "Living room motion",
        "--include-self": None, "--format": "csv", "--to": "xes",
    }


# the flags of each subcommand's base run of the config-form test, and the
# base flags an option replaces
_BASE_FLAGS = {"--csv": SMART_HOME, "--base-label": "Sensor", "--deterministic": None}
_COMMAND_FLAGS = {"evaluate": {"--threshold": "Bedroom motion,08:30,Tossing & turning,Getting up"},
                  "convert": {"--to": "csv"}}
_REPLACES = {"--xes": ("--csv", "--base-label"), "--refined-label": ("--threshold",),
             "--rules": ("--threshold",)}


def _argv(flags: dict[str, str | None]) -> list[str]:
    return [token for flag, value in flags.items()
            for token in ((flag,) if value is None else (flag, value))]


def test_every_option_reads_the_same_from_a_config_file(tmp_path, capsys):
    values = _option_values(tmp_path)
    out_file, cfg = Path(values["--out"]), tmp_path / "run.cfg"

    def output(command, flags, config=""):
        cfg.write_text(config)
        out_file.unlink(missing_ok=True)
        code, out, err = run(capsys, command, *_argv(flags), "--config", str(cfg))
        return code, out, out_file.read_text() if out_file.exists() else None

    differ = []
    for command, parser in cli.build_parser().commands.items():
        for action in parser._actions:
            for option in action.option_strings:
                if option in ("-h", "--help", "--config"):
                    continue
                base = {**_BASE_FLAGS, **_COMMAND_FLAGS.get(command, {})}
                for replaced in _REPLACES.get(option, ()):
                    base.pop(replaced, None)
                base.pop(option, None)
                value = values[option]
                flag_form = output(command, {**base, option: value})
                assert flag_form[0] == 0, (command, option)
                config = f"{option[2:]}={'true' if value is None else value}\n"
                if output(command, base, config) != flag_form:
                    differ.append(f"{command} {option}")
    assert differ == []


def test_pretty_output(capsys):
    code, out, _ = run(capsys, "evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
                       "--refined-label", "Activity", "--pretty")
    assert code == 0
    assert "useful: yes" in out
    assert "directly_precedes" in out


@pytest.mark.parametrize("argv", [
    ("evaluate", "--refined-label", "Activity"),
    ("scan",),
    ("gen-candidates",),
])
def test_json_output_builds_no_pretty_text_and_no_report_dict(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("called without --pretty")

    for name in ("pretty_report", "pretty_ranking", "pretty_candidates"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(EvaluationReport, "to_json_dict", refuse)
    code, out, err = run(capsys, *argv, "--csv", SMART_HOME, "--base-label", "Sensor")
    assert code == 0, err
    assert json.loads(out)


def test_stats_pretty_is_an_aligned_table(capsys):
    code, out, _ = run(capsys, "stats", "--csv", SMART_HOME, "--base-label", "Sensor",
                       "--relations", "directly_precedes", "--pretty")
    assert code == 0
    assert out == ("relation           b                   c                   pos  neg\n"
                   "directly_precedes  Bedroom motion      Living room motion    5   16\n"
                   "directly_precedes  Living room motion  Bedroom motion        0    5\n")


def test_stats_pretty_and_csv_format_exclude_each_other(capsys, monkeypatch):
    # --format csv used to drop --pretty silently; the input is not read
    monkeypatch.setattr(cli, "_load_base_log", None)
    code, out, err = run(capsys, "stats", "--csv", SMART_HOME, "--base-label", "Sensor",
                         "--format", "csv", "--pretty")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "error: --pretty and --format csv exclude each other"


def test_case_key_flags_match_default(capsys):
    # explicit (Address, day) partitioning equals the default case column here
    _, explicit, _ = run(capsys, "evaluate", "--csv", SMART_HOME,
                         "--base-label", "Sensor", "--refined-label", "Activity",
                         "--case-key", "Address", "--calendar-key", "day",
                         "--deterministic")
    _, default, _ = run(capsys, "evaluate", "--csv", SMART_HOME,
                        "--base-label", "Sensor", "--refined-label", "Activity",
                        "--deterministic")
    assert json.loads(explicit)["tests"] == json.loads(default)["tests"]


def test_relations_flag(capsys):
    code, out, _ = run(capsys, "evaluate", "--csv", SMART_HOME,
                       "--base-label", "Sensor", "--refined-label", "Activity",
                       "--relations", "directly_precedes,length_two_loop")
    assert code == 0
    doc = json.loads(out)
    assert {t["relation"] for t in doc["tests"]} == {"directly_precedes",
                                                     "length_two_loop"}
    code, _, err = run(capsys, "evaluate", "--csv", SMART_HOME,
                       "--base-label", "Sensor", "--refined-label", "Activity",
                       "--relations", "sideways")
    assert code == 1
    assert "sideways" in err


@pytest.mark.parametrize("argv, flag", [
    (("scan",), "--relations"), (("scan",), "--context-labels"),
    (("evaluate", "--refined-label", "Activity"), "--relations"),
    (("evaluate", "--refined-label", "Activity"), "--context-labels"),
    (("stats",), "--relations"), (("stats", "--format", "csv"), "--relations"),
    (("stats", "--format", "csv"), "--b-labels"), (("stats",), "--c-labels"),
])
@pytest.mark.parametrize("value", ["", ",", " , "])
@pytest.mark.parametrize("via_config", [False, True])
def test_a_list_flag_that_names_nothing_exits_one(tmp_path, capsys, argv, flag, value,
                                                  via_config):
    # an empty list would run no test, or write only a header, and exit 0;
    # one from a --config file names the file
    given, source = [f"{flag}={value}"], ""
    if via_config:
        cfg = tmp_path / "flags.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n", encoding="utf-8")
        given, source = ["--config", str(cfg)], f" (in --config {cfg})"
    code, out, err = run(capsys, *argv, "--csv", SMART_HOME, "--base-label", "Sensor", *given)
    assert (code, out) == (1, "")
    what = "relation" if flag == "--relations" else "label"
    assert err.splitlines()[-1] == f"error: {flag} names no {what}{source}"


@pytest.mark.parametrize("argv, flag", [
    (("scan",), "--base-label"), (("stats", "--format", "csv"), "--base-label"),
    (("evaluate", "--base-label", "Sensor"), "--refined-label"),
    (("scan", "--base-label", "Sensor"), "--case-key"),
    (("scan", "--base-label", "Sensor", "--calendar-key", "day"), "--case-key"),
])
@pytest.mark.parametrize("value", ["", ",", " , "])
@pytest.mark.parametrize("via_config", [False, True])
def test_an_attribute_list_that_names_nothing_exits_one(tmp_path, capsys, argv, flag, value,
                                                        via_config):
    # an empty base label made the empty label the split parent, or meant
    # every attribute; an empty case key was ignored, or grouped by day
    # only; one from a --config file names the file
    given, source = [f"{flag}={value}"], ""
    if via_config:
        cfg = tmp_path / "flags.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n", encoding="utf-8")
        given, source = ["--config", str(cfg)], f" (in --config {cfg})"
    code, out, err = run(capsys, *argv, "--csv", SMART_HOME, *given)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: {flag} names no attribute{source}"


@pytest.mark.parametrize("value", ["", ",", " , "])
def test_schema_attribute_columns_that_name_nothing_exit_one(tmp_path, capsys, value):
    schema = tmp_path / "schema.cfg"
    schema.write_text(f"attribute_columns={value}\n", encoding="utf-8")
    code, out, err = run(capsys, "stats", "--csv", SMART_HOME, "--csv-schema", str(schema),
                         "--base-label", "Sensor")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == ("error: --csv-schema attribute_columns names no column "
                                    f"(in --csv-schema {schema})")


_EMPTY_PATHS = [(("scan", "--csv", SMART_HOME), "--out"),
                (("scan", "--csv", SMART_HOME), "--csv-schema"),
                (("evaluate", "--csv", SMART_HOME), "--rules"),
                (("scan",), "--csv"), (("stats",), "--xes")]


@pytest.mark.parametrize("argv, flag, via_config", [
    *((argv, flag, via_config) for argv, flag in _EMPTY_PATHS for via_config in (False, True)),
    (("scan", "--csv", SMART_HOME), "--config", False),  # no config key gives --config
])
def test_an_empty_file_path_exits_one_naming_its_flag(tmp_path, capsys, argv, flag, via_config):
    # an empty --out, --config or --csv-schema was taken as absent, an
    # empty --rules read the directory "." and an empty --csv was missing
    given = [flag, ""]
    if via_config:
        cfg = tmp_path / "flags.cfg"
        cfg.write_text(f"{flag[2:]}=\n", encoding="utf-8")
        given = ["--config", str(cfg)]
    code, out, err = run(capsys, *argv, "--base-label", "Sensor", *given)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (f"error: argument {flag}: empty file path"
                                    + (f" (in --config {cfg})" if via_config else ""))


def test_attribute_lists_read_one_csv_record(tmp_path, capsys):
    # a quoted attribute name may hold a comma, as a quoted header cell does
    path = tmp_path / "log.csv"
    path.write_text('id,timestamp,"home, floor",sensor\n'
                    + "".join(f"{i},2020-01-0{1 + i // 3} 0{i % 3}:00,h{i // 3},{'ab'[i % 2]}\n"
                              for i in range(6)))
    code, out, err = run(capsys, "stats", "--csv", str(path), "--format", "csv",
                         "--relations", "directly_follows",
                         "--base-label", 'sensor, "home, floor"', "--case-key", '"home, floor"')
    assert code == 0, err
    # traces a b a and b a b, one per home: the last a of h0 precedes no b
    assert out.splitlines()[1:4] == ['directly_follows,"a+h0","a+h1",0,2',
                                     'directly_follows,"a+h0","b+h0",1,1',
                                     'directly_follows,"a+h0","b+h1",0,2']


@pytest.mark.parametrize("argv, repeated, once", [
    (("scan",), ("--context-labels", "Living room motion,Living room motion"),
     ("--context-labels", "Living room motion")),
    (("scan",), ("--relations", "directly_follows,directly_follows"),
     ("--relations", "directly_follows")),
    (("scan", "--family-scope", "per_candidate_set"),
     ("--relations", "eventually_follows,directly_follows,eventually_follows"),
     ("--relations", "eventually_follows,directly_follows")),
    (("evaluate", "--refined-label", "Activity"),
     ("--context-labels", "Living room motion,Bedroom motion,Living room motion"),
     ("--context-labels", "Living room motion,Bedroom motion")),
    (("evaluate", "--refined-label", "Activity"),
     ("--relations", "directly_precedes,length_two_loop,directly_precedes"),
     ("--relations", "directly_precedes,length_two_loop")),
    (("stats",), ("--relations", "directly_follows,directly_follows"),
     ("--relations", "directly_follows")),
    (("stats", "--format", "csv"), ("--relations", "length_two_loop,length_two_loop"),
     ("--relations", "length_two_loop")),
    (("stats", "--pretty"), ("--relations", "directly_follows,directly_follows"),
     ("--relations", "directly_follows")),
])
def test_a_repeated_relation_or_context_is_used_once(capsys, argv, repeated, once):
    common = ("--csv", SMART_HOME, "--base-label", "Sensor", "--deterministic")
    code, with_repeat, err = run(capsys, *argv, *common, *repeated)
    assert code == 0, err
    code, without, err = run(capsys, *argv, *common, *once)
    assert code == 0, err
    assert with_repeat == without


def test_a_repeated_context_does_not_grow_the_test_family(capsys):
    code, out, _ = run(capsys, "scan", "--csv", SMART_HOME, "--base-label", "Sensor",
                       "--context-labels", "Living room motion,Living room motion")
    assert code == 0
    # the Living room motion split has no context left
    reports = json.loads(out)["candidates"]
    assert [(r["m_tests"], r["corrected_alpha"]) for r in reports] == [(4, 0.0025), (0, 0.01)]
    assert reports[0]["candidate"].startswith("time_threshold[Bedroom motion@")


def test_bad_alpha_is_usage_error(capsys):
    code, _, err = run(capsys, "evaluate", "--csv", SMART_HOME,
                       "--base-label", "Sensor", "--refined-label", "Activity",
                       "--alpha", "2.0")
    assert code == 1


def test_refinement_merging_coarse_labels_exits_three(tmp_path, capsys):
    # fine label x sits under coarse a and b: a refinement may split labels,
    # never merge them
    csv = tmp_path / "merge.csv"
    csv.write_text("id,timestamp,case,coarse,fine\n" + "".join(
        f"{5 * day + j + 1},2020-01-0{day + 1} 00:0{j},t{day},{coarse},{fine}\n"
        for day in range(3)
        for j, (coarse, fine) in enumerate(zip("abcac", ["x", "x", "c", "y", "c"]))))
    code, out, err = run(capsys, "evaluate", "--csv", str(csv),
                         "--base-label", "coarse", "--refined-label", "fine")
    assert code == 3
    assert out == ""
    assert "refined label x" in err
    assert "(a, b)" in err


def test_header_names_with_spaces_are_sniffed_and_parsed(tmp_path, capsys):
    csv = tmp_path / "spaced.csv"
    csv.write_text("id, timestamp, sensor\n"
                   "1,2020-01-01 00:00,a\n"
                   "2,2020-01-01 00:01,b\n"
                   "3,2020-01-01 00:02,a\n")
    code, out, err = run(capsys, "stats", "--csv", str(csv), "--base-label", "sensor")
    assert code == 0, err
    cell = {(r["relation"], r["b"][0], r["c"][0]): (r["pos"], r["neg"])
            for r in json.loads(out)["rows"]}
    assert cell[("directly_precedes", "a", "b")] == (1, 1)


@pytest.mark.parametrize("argv", [
    ["stats", "--base-label", "Sensor"],
    ["scan", "--base-label", "Sensor"],
    ["evaluate", "--base-label", "Sensor",
     "--threshold", "Bedroom motion,08:30,Tossing & turning,Getting up"],
])
def test_unknown_time_zone_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--csv", SMART_HOME, "--timezone", "Not/AZone")
    assert code == 1
    assert out == ""
    assert "error: unknown time zone 'Not/AZone'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["scan", "--timezone", "Not/AZone"], "unknown time zone 'Not/AZone'"),
    (["scan", "--relations", "directly_follows,sideways"],
     "unknown relation 'sideways'; valid: ['directly_follows', 'directly_precedes', "
     "'eventually_follows', 'eventually_precedes', 'length_two_loop']"),
    (["stats", "--relations", "sideways"], "unknown relation 'sideways'; valid: "
     "['directly_follows', 'directly_precedes', 'eventually_follows', "
     "'eventually_precedes', 'length_two_loop']"),
    (["evaluate", "--threshold", "Bedroom motion,25:00,early,late"],
     "not a time of day: '25:00'"),
    (["evaluate", "--refined-label", "Activity", "--alpha", "2"],
     "alpha must be in (0, 1), got 2.0"),
])
def test_a_value_the_library_refuses_is_one_error_line(capsys, argv, message):
    # the library reads the value and words the message; the CLI prints it
    # as it prints every ValueError, with no usage line
    code, out, err = run(capsys, *argv, "--csv", SMART_HOME, "--base-label", "Sensor")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flag, argv", [
    ("--config", ["scan"]),
    ("--csv-schema", ["scan"]),
    ("--rules", ["evaluate"]),
])
@pytest.mark.parametrize("fault", ["not utf-8", "missing", "a directory"])
def test_an_unreadable_settings_file_names_its_flag_and_path(tmp_path, capsys, flag, argv,
                                                            fault):
    path = tmp_path / "settings"
    if fault == "not utf-8":
        path.write_bytes(b"alpha=0.05\n\xaf\n")
        reason = "'utf-8' codec can't decode byte 0xaf in position 11: invalid start byte"
    elif fault == "missing":
        reason = f"[Errno 2] No such file or directory: '{path}'"
    else:
        path.mkdir()
        reason = f"[Errno 21] Is a directory: '{path}'"
    code, out, err = run(capsys, *argv, "--csv", SMART_HOME, "--base-label", "Sensor",
                         flag, str(path))
    assert (code, out, err) == (1, "", f"error: cannot read {flag} {path}: {reason}\n")


def test_unknown_time_zone_in_schema_is_usage_error(tmp_path, capsys):
    schema = tmp_path / "schema.cfg"
    schema.write_text("attribute_columns=case,Sensor,Activity\ntimezone=Not/AZone\n")
    code, _, err = run(capsys, "stats", "--csv", SMART_HOME, "--csv-schema", str(schema),
                       "--base-label", "Sensor")
    assert code == 1
    assert "error: unknown time zone 'Not/AZone'" in err


# --- the output sink: --out and stdout -------------------------------------

# one run of each kind of output
_OUTPUTS = [
    ["scan"],
    ["scan", "--pretty"],
    ["evaluate", "--refined-label", "Sensor,Activity"],
    ["stats", "--format", "json"],
    ["stats", "--format", "csv"],
    ["stats", "--pretty"],
    ["gen-candidates"],
    ["convert", "--to", "csv"],
    ["convert", "--to", "xes"],
]


@pytest.mark.parametrize("argv", _OUTPUTS)
def test_out_file_and_stdout_get_the_same_bytes(argv, tmp_path, capsys):
    common = ["--csv", SMART_HOME, "--base-label", "Sensor", "--deterministic"]
    code, out, err = run(capsys, *argv, *common)
    assert code == 0, err
    path = tmp_path / "out"
    code, printed, err = run(capsys, *argv, *common, "--out", str(path))
    assert code == 0 and printed == "", err
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", [["scan"], ["stats", "--format", "csv"],
                                  ["convert", "--to", "xes"]])
def test_out_into_a_missing_directory_is_an_error_that_creates_nothing(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *argv, "--csv", SMART_HOME, "--base-label", "Sensor",
                         "--out", str(missing / "out.json"))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_write_that_fails_part_way_leaves_what_was_written(tmp_path, capsys, monkeypatch):
    # output is streamed, so a label that stdout cannot encode fails the
    # write part way: what was written stays, as with an OSError, and the
    # command exits 1 with error:
    path = tmp_path / "log.csv"
    rows = [f"{k},2020-01-01 00:{k:02d},c,{s}" for k, s in enumerate(["a", "b", "Küche"] * 4)]
    path.write_text("\n".join(["id,timestamp,case,Sensor", *rows]) + "\n", encoding="utf-8")
    argv = ["stats", "--format", "csv", "--csv", str(path), "--base-label", "Sensor",
            "--case-key", "case"]
    code, full, err = run(capsys, *argv)
    assert code == 0 and "Küche" in full, err
    ascii_out = io.TextIOWrapper(io.BytesIO(), encoding="ascii", newline="")
    monkeypatch.setattr("sys.stdout", ascii_out)
    code, _, err = run(capsys, *argv)
    ascii_out.flush()
    written = ascii_out.buffer.getvalue().decode("ascii")
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err
    assert written == "relation,b,c,pos,neg\n" and full.startswith(written)


@pytest.mark.parametrize("argv", _OUTPUTS)
def test_every_output_is_written_by_one_emit_call(argv, tmp_path, monkeypatch):
    # stats --format csv, stats --pretty and convert used to write past
    # _emit, so a timer on it saw no time and a hook on it no text
    emit, given = cli._emit, []

    def recording_emit(args, chunks):
        given.append([])
        emit(args, (given[-1].append(chunk) or chunk for chunk in chunks))

    monkeypatch.setattr(cli, "_emit", recording_emit)
    path = tmp_path / "out"
    assert main([*argv, "--csv", SMART_HOME, "--base-label", "Sensor", "--deterministic",
                 "--out", str(path)]) == 0
    assert len(given) == 1 and given[0]
    assert path.read_bytes() == "".join(given[0]).encode("utf-8")


def test_out_that_cannot_be_written_is_refused_before_the_input_is_read(tmp_path, capsys):
    # it used to be opened after the whole analysis, and its error named
    # no flag; here the input is missing too, and --out is named first
    code, out, err = run(capsys, "scan", "--csv", str(tmp_path / "missing.csv"),
                         "--base-label", "Sensor", "--out", str(tmp_path))
    assert (code, out) == (1, "")
    reason = f"[Errno 21] Is a directory: '{tmp_path}'"
    assert err == f"error: cannot write --out {tmp_path}: {reason}\n"


def test_convert_may_write_over_its_own_input(tmp_path, capsys):
    # --out is checked without emptying it, and written once the input is read
    path = tmp_path / "log.csv"
    path.write_bytes(Path(SMART_HOME).read_bytes())
    code, out, err = run(capsys, "convert", "--csv", str(path), "--base-label", "Sensor",
                         "--to", "csv", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == (DATA / "golden" / "convert.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_out_may_be_a_named_pipe_opened_once(tmp_path, capsys):
    # the check leaves a pipe alone: opening it would wait for a reader,
    # and closing it would give that reader an early end of file
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    check = threading.Thread(target=cli._check_out, args=(str(fifo),), daemon=True)
    check.start()
    check.join(5)
    assert not check.is_alive()
    reads: list[str] = []

    def read():
        with open(fifo, encoding="utf-8") as f:
            reads.append(f.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    argv = ["gen-candidates", "--csv", SMART_HOME, "--base-label", "Sensor", "--deterministic"]
    assert run(capsys, *argv, "--out", str(fifo))[0] == 0
    reader.join(10)
    assert reads == [(DATA / "golden" / "gen-candidates.json").read_text(encoding="utf-8")]


@pytest.mark.parametrize("before", [b"kept\n", None])
def test_a_failing_run_leaves_out_as_it_was(tmp_path, capsys, before):
    # an existing file keeps its bytes, and a missing one is not made
    path = tmp_path / "out.json"
    if before is not None:
        path.write_bytes(before)
    code, _, err = run(capsys, "evaluate", "--csv", SMART_HOME, "--base-label", "Sensor",
                       "--threshold", "Bedroom motion,08:30,Living room motion,Getting up",
                       "--out", str(path))
    assert code == 3 and err.startswith("refinement error: "), err
    assert (path.read_bytes() if path.exists() else None) == before


@pytest.mark.parametrize("flag, text, argv, message", [
    ("--csv-schema", "attribute_columns=case,Sensor,Activity\ndelimiter=;;\n", ["scan"],
     "delimiter must be a single character"),
    ("--csv-schema", "attribute_columns=case,Sensor,Activity\ntimezone=Not/AZone\n", ["scan"],
     "unknown time zone 'Not/AZone'"),
    ("--csv-schema", "bogus=1\n", ["scan"], "unknown schema keys: ['bogus']"),
    ("--rules", "Sensor < abc -> x\n", ["evaluate"],
     "line 1: not a time of day or a number: 'abc'"),
    ("--rules", "Sensor = nothing -> x\n", ["evaluate"],
     "no rule matches event '1' and no default is set"),
    ("--config", "junk\n", ["scan"], "line 1: expected key=value, got 'junk'"),
    ("--csv-schema", "junk\n", ["scan"], "line 1: expected key=value, got 'junk'"),
    ("--csv-schema", "attribute_columns=\n", ["scan"],
     "--csv-schema attribute_columns names no column"),
    ("--config", "bogus_key=1\n", ["scan"], "unknown config key 'bogus_key'"),
    ("--config", "alpha=abc\n", ["scan"], "argument --alpha: invalid float value: 'abc'"),
    ("--config", "timezone=Not/AZone\n", ["stats"], "unknown time zone 'Not/AZone'"),
    ("--config", "relations=sideways\n", ["scan"],
     "unknown relation 'sideways'; valid: ['directly_follows', 'directly_precedes', "
     "'eventually_follows', 'eventually_precedes', 'length_two_loop']"),
    ("--config", "b-labels=,\n", ["stats"], "--b-labels names no label"),
], ids=["schema-delimiter", "schema-timezone", "schema-unknown-key", "rule-value",
        "rule-matching-nothing", "config-line", "schema-line", "schema-no-column",
        "config-unknown-key", "config-value-argparse-refuses", "config-timezone",
        "config-relations", "config-empty-list"])
def test_an_error_in_a_settings_file_names_its_flag_and_path(tmp_path, capsys, flag, text,
                                                             argv, message):
    # these used to name neither, and a bad schema value, a line without
    # "=", an unknown config key or a config value of the wrong type came
    # after the usage line
    path = tmp_path / "settings"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv, "--csv", SMART_HOME, "--base-label", "Sensor",
                         flag, str(path))
    assert (code, out, err) == (1, "", f"error: {message} (in {flag} {path})\n")


@pytest.mark.parametrize("zone, code, err", [
    ("Bad/Zone", 1, "error: unknown time zone 'Bad/Zone'\n"),
    ("UTC", 0, ""),
])
def test_a_zone_on_the_command_line_wins_over_the_config_file(tmp_path, capsys, zone, code, err):
    # a bad zone given on the command line names no file; a good one is read
    # instead of the file's bad one
    path = tmp_path / "settings"
    path.write_text("timezone=Not/AZone\n", encoding="utf-8")
    assert run(capsys, "stats", "--csv", SMART_HOME, "--base-label", "Sensor", "--config",
               str(path), "--timezone", zone)[::2] == (code, err)


@pytest.mark.parametrize("labels, code, err", [
    (",", 1, "usage: labelsplit [-h] COMMAND ...\nerror: --b-labels names no label\n"),
    ("Bedroom motion", 0, ""),
], ids=["bad", "good"])
def test_a_list_on_the_command_line_wins_over_the_config_file(tmp_path, capsys, labels, code,
                                                              err):
    # a bad list given on the command line names no file, as before; a good
    # one is read instead of the file's bad one
    path = tmp_path / "settings"
    path.write_text("b-labels=,\nrelations=sideways\n", encoding="utf-8")
    assert run(capsys, "stats", "--csv", SMART_HOME, "--base-label", "Sensor", "--config",
               str(path), "--b-labels", labels, "--relations", "directly_follows"
               )[::2] == (code, err)


def test_subcommand_help_exits_zero(capsys):
    code, out, err = run(capsys, "scan", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: labelsplit scan")


# input files of the exit tests below, by name
_INPUT_FILES = {"no-timestamp.csv": "id,when,Sensor\n1,2020-01-01 00:00,a\n",
                "no-attributes.csv": "id,timestamp\n1,2020-01-01 00:00\n",
                "empty.csv": "", "sensor.schema": "attribute_columns=Sensor\n",
                "root.xes": "<root/>"}
_EXACTLY_ONE = "error: exactly one of --refined-label, --rules, --threshold is required"


@pytest.mark.parametrize("argv, code, last", [
    (["evaluate", "--csv", SMART_HOME, "--base-label", "Sensor"], 1, _EXACTLY_ONE),
    (["evaluate", "--csv", SMART_HOME, "--base-label", "Sensor", "--refined-label", "Activity",
      "--threshold", "Bedroom motion,08:30,a,b"], 1, _EXACTLY_ONE),
    (["convert", "--csv", SMART_HOME], 1, "error: the following arguments are required: --to"),
    (["scan", "--csv", "no-timestamp.csv"], 2,
     "parse error: no 'timestamp' column; provide --csv-schema"),
    (["scan", "--csv", "no-attributes.csv"], 2,
     "parse error: no attribute columns found in header"),
    (["scan", "--csv", "empty.csv", "--csv-schema", "sensor.schema"], 2,
     "parse error: empty input: missing header row"),
    (["scan", "--xes", "missing.xes"], 2, "parse error: cannot read missing.xes: "),
    (["scan", "--xes", "root.xes"], 2, "parse error: expected <log> root element, got <root>"),
], ids=["evaluate-no-refinement", "evaluate-two-refinements", "convert-without-to",
        "header-without-timestamp", "header-without-attributes", "empty-csv-with-schema",
        "missing-xes", "xes-root"])
def test_each_refused_input_exits_with_its_code_and_message(tmp_path, capsys, monkeypatch,
                                                            argv, code, last):
    for name, text in _INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.splitlines()[-1].startswith(last)


def test_convert_writes_the_case_key_it_grouped_by(capsys):
    code, out, _ = run(capsys, "convert", "--csv", SMART_HOME, "--case-key", "Address",
                       "--calendar-key", "day", "--to", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and rows[0]["case"] == "Mountain Rd. 7|2015-03-11"
    assert all(row["case"] == f"{row['Address']}|{row['timestamp'][:10]}" for row in rows)


def test_config_blank_and_comment_lines_are_skipped(tmp_path, capsys):
    plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
    plain.write_text("alpha=0.2\nrelations=directly_follows\n", encoding="utf-8")
    commented.write_text("# defaults\n\nalpha=0.2\n   \n  # relations=eventually_follows\n"
                         "relations=directly_follows\n", encoding="utf-8")
    scan = ("scan", "--csv", SMART_HOME, "--base-label", "Sensor", "--deterministic")
    with_plain = run(capsys, *scan, "--config", str(plain))
    assert with_plain[0] == 0
    assert run(capsys, *scan, "--config", str(commented)) == with_plain
    assert run(capsys, *scan) != with_plain  # the keys were read


def _wide_csv(path: Path, labels: int = 40, days: int = 30, per_day: int = 40) -> str:
    """A log of ``labels`` sensors, ``per_day`` random events a day."""
    rng = random.Random(7)
    lines = ["id,timestamp,case,Sensor"]
    for day in range(days):
        minutes = sorted(rng.sample(range(24 * 60), per_day))
        for minute in minutes:
            lines.append(f"{len(lines)},2020-01-{day + 1:02d} {minute // 60:02d}:{minute % 60:02d},"
                         f"d{day},s{rng.randrange(labels)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_scan_writes_its_report_without_holding_it(tmp_path, monkeypatch):
    # the scan's report is written one child pair's records at a time, so
    # writing it takes a small part of its size in memory
    emit, peaks = cli._emit, []

    def traced_emit(*args, **kwargs):
        tracemalloc.start()
        try:
            emit(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_emit", traced_emit)
    out = tmp_path / "scan.json"
    assert main(["scan", "--csv", _wide_csv(tmp_path / "wide.csv"), "--base-label", "Sensor",
                 "--case-key", "case", "--deterministic", "--out", str(out)]) == 0
    size = out.stat().st_size
    assert len(json.loads(out.read_text(encoding="utf-8"))["candidates"]) == 40
    assert len(peaks) == 1 and peaks[0] < size / 4, (peaks, size)
