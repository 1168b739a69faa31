import json
import os
import subprocess
import sys
import time

import pytest

from pqcat.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    OutputRecord,
    _unlimited_int_str,
    emit,
    parse_record,
    run,
)


def run_lines(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, [parse_record(line) for line in out.splitlines() if line]


class TestDispatch:
    def test_digits(self, capsys):
        code, recs = run_lines(capsys, ["digits", "--n", "45", "--p", "2"])
        assert code == EXIT_OK
        assert recs[0]["result"]["digits"] == [1, 0, 1, 1, 0, 1]
        assert recs[0]["result"]["sigma"] == 4

    def test_valuation_binomial_and_catalan(self, capsys):
        code, recs = run_lines(capsys, ["valuation", "--p", "3", "--m", "10", "--n", "4"])
        assert code == EXIT_OK and recs[0]["result"] == 1
        code, recs = run_lines(capsys, ["valuation", "--p", "3", "--q", "2", "--n", "4"])
        assert code == EXIT_OK and recs[0]["result"] == 1

    def test_catalan_exact_and_modular(self, capsys):
        code, recs = run_lines(capsys, ["catalan", "--s", "4", "--n", "3"])
        assert code == EXIT_OK and recs[0]["result"] == 22
        code, recs = run_lines(capsys, ["catalan", "--p", "2", "--q", "2", "--n", "3"])
        assert recs[0]["result"] == {"valuation": 1, "residue": 2, "divides": False}

    def test_granville(self, capsys):
        code, recs = run_lines(capsys, ["granville", "--m", "10", "--n", "4", "--p", "3", "--q", "2"])
        assert recs[0]["result"] == {"e0": 1, "unit_residue": 7}

    def test_exceptions_list_and_count(self, capsys):
        code, recs = run_lines(capsys, ["exceptions", "--p", "2", "--q", "2", "--bound", "60"])
        assert recs[0]["result"] == [1, 3, 5, 11, 13, 21, 43, 45, 53]
        code, recs = run_lines(
            capsys, ["exceptions", "--p", "2", "--q", "2", "--bound", "0", "--count-from", "761"]
        )
        assert recs[0]["result"]["count"] == 289180

    def test_residues(self, capsys):
        code, recs = run_lines(capsys, ["residues", "--p", "5"])
        assert recs[0]["result"] == [0, 1, 5, 10, 20]
        assert "provenance" in recs[0]

    def test_scan(self, capsys):
        code, recs = run_lines(capsys, ["scan", "--p", "2", "--q", "2", "--bound", "100"])
        assert recs[0]["result"]["squarefree_hits"] == [1, 3, 45]
        assert set(recs[0]["inputs"]) == {"bound", "exhaustive", "p", "q"}

    def test_scan_checkpoint_echoed(self, capsys, tmp_path):
        path = str(tmp_path / "ck.json")
        code, recs = run_lines(
            capsys, ["scan", "--p", "2", "--q", "2", "--bound", "100", "--checkpoint", path]
        )
        assert recs[0]["result"]["checkpoint_path"] == path
        reloaded = json.loads(open(path).read())
        assert reloaded["hits"] == ["1", "3", "45"]

    def test_threshold(self, capsys):
        code, recs = run_lines(
            capsys,
            ["threshold", "--p", "2", "--q", "2", "--log2-n", "1518", "--log2-n", "1700"],
        )
        holds = {r["inputs"]["n"]: r["result"]["holds"] for r in recs}
        assert holds == {"2**1518": False, "2**1700": True}

    def test_verify(self, capsys):
        code, recs = run_lines(capsys, ["verify", "--p", "2", "--q", "2", "--bound", "100"])
        assert recs[0]["result"] == {"sound": True}

    def test_big_integers_are_strings(self, capsys):
        # the --bound parser accepts 2**e shorthand; huge values serialize
        # as decimal strings
        code, recs = run_lines(capsys, ["exceptions", "--p", "2", "--q", "2", "--bound", "2**80"])
        big = [v for v in recs[0]["result"] if isinstance(v, str)]
        assert big, "values beyond 2**53 must be serialized as decimal strings"
        assert all(int(v) > 2**53 for v in big)


# `exceptions --forms` records as emitted before forms were read off digits:
# (value, t) for a pure power, (value, [(c, i), ...]) for an odd-power sum,
# (value, [exponents]) for a general sum
FORMS_3_2_100 = [
    (1, 1), (4, [(2, 0), (1, 1)]), (7, [(1, 0), (2, 1)]), (10, 2), (31, [(2, 0), (1, 2)]),
    (34, [(1, 0), (1, 1), (1, 2)]), (37, [(2, 1), (1, 2)]), (61, [(1, 0), (2, 2)]),
    (64, [(1, 1), (2, 2)]), (91, 3),
]
FORMS_3_3_1000 = [
    (1, 1), (4, [1, 1, 2, 2, 4]), (7, [1, 2, 2, 4, 4]), (10, [2, 2, 5]), (13, [1, 1, 2, 4, 5]),
    (16, [1, 2, 4, 4, 5]), (19, [2, 5, 5]), (22, [1, 1, 4, 5, 5]), (25, [1, 4, 4, 5, 5]),
    (28, 2), (85, [1, 1, 2, 2, 7]), (88, [1, 2, 2, 4, 7]), (91, [2, 2, 4, 4, 7]),
    (94, [1, 1, 2, 5, 7]), (97, [1, 2, 4, 5, 7]), (100, [2, 4, 4, 5, 7]),
    (103, [1, 1, 5, 5, 7]), (106, [1, 4, 5, 5, 7]), (109, [4, 4, 5, 5, 7]),
    (169, [1, 2, 2, 7, 7]), (172, [2, 2, 4, 7, 7]), (178, [1, 2, 5, 7, 7]),
    (181, [2, 4, 5, 7, 7]), (187, [1, 5, 5, 7, 7]), (190, [4, 5, 5, 7, 7]), (253, [2, 2, 8]),
    (256, [1, 1, 2, 4, 8]), (259, [1, 2, 4, 4, 8]), (262, [2, 5, 8]), (265, [1, 1, 4, 5, 8]),
    (268, [1, 4, 4, 5, 8]), (271, [5, 5, 8]), (337, [1, 1, 2, 7, 8]), (340, [1, 2, 4, 7, 8]),
    (343, [2, 4, 4, 7, 8]), (346, [1, 1, 5, 7, 8]), (349, [1, 4, 5, 7, 8]),
    (352, [4, 4, 5, 7, 8]), (421, [1, 2, 7, 7, 8]), (424, [2, 4, 7, 7, 8]),
    (430, [1, 5, 7, 7, 8]), (433, [4, 5, 7, 7, 8]), (505, [2, 8, 8]), (508, [1, 1, 4, 8, 8]),
    (511, [1, 4, 4, 8, 8]), (514, [5, 8, 8]), (589, [1, 1, 7, 8, 8]), (592, [1, 4, 7, 8, 8]),
    (595, [4, 4, 7, 8, 8]), (673, [1, 7, 7, 8, 8]), (676, [4, 7, 7, 8, 8]), (757, 3),
]


def forms_line(p, q, bound, records):
    result = []
    for value, shape in records:
        if isinstance(shape, int):
            form = {"kind": "pure_power", "t": shape}
        elif isinstance(shape[0], tuple):
            form = {"kind": "odd_power_sum", "terms": [list(t) for t in shape]}
        else:
            form = {"kind": "general_sum", "exponents": shape}
        result.append({"forms": [form], "value": value})
    payload = {
        "command": "exceptions",
        "inputs": {"bound": bound, "p": p, "q": q},
        "provenance": "n <= bound with p^q not dividing C(p^q n, n)/((p^q-1)n+1), by structure",
        "result": result,
    }
    return json.dumps(payload, sort_keys=True) + "\n"


class TestExceptionForms:
    @pytest.mark.parametrize(
        "p,q,bound,records", [(3, 2, 100, FORMS_3_2_100), (3, 3, 1000, FORMS_3_3_1000)]
    )
    def test_forms_record_pinned(self, capsys, p, q, bound, records):
        argv = ["exceptions", "--p", str(p), "--q", str(q), "--bound", str(bound)]
        assert run(argv + ["--forms"]) == EXIT_OK
        assert capsys.readouterr().out == forms_line(p, q, bound, records)
        code, recs = run_lines(capsys, argv)
        assert code == EXIT_OK
        assert recs[0]["result"] == [value for value, _ in records]


class TestExitCodes:
    def test_domain_error(self, capsys):
        assert run(["digits", "--n", "10", "--p", "6"]) == EXIT_DOMAIN
        capsys.readouterr()
        # p = 2 with q >= 3 is answered like every other prime power
        code, recs = run_lines(capsys, ["exceptions", "--p", "2", "--q", "3", "--bound", "100"])
        assert code == EXIT_OK
        assert recs[0]["result"] == [n for n in range(1, 101) if bin(7 * n + 1).count("1") <= 3]

    def test_resource_error(self, capsys):
        assert run(["catalan", "--s", "4", "--n", str(10**9)]) == EXIT_RESOURCE

    def test_usage_error(self, capsys):
        assert run(["digits", "--n", "10"]) == EXIT_USAGE
        assert run(["nonsense"]) == EXIT_USAGE
        assert run(["digits", "--n", "10", "--p", "2", "--bogus"]) == EXIT_USAGE

    def test_power_shorthand_must_be_integer(self, capsys):
        assert run(["scan", "--p", "2", "--q", "2", "--bound", "2**-1"]) == EXIT_USAGE
        assert run(["digits", "--n", "2**-1", "--p", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].endswith("2**-1 is not an integer (negative exponent)")

    def test_power_shorthand_size_cap(self, capsys):
        # refused before the power is computed, so this returns at once
        assert run(["digits", "--n", "7**100000000", "--p", "7"]) == EXIT_USAGE
        assert run(["digits", "--n", "2**1048576", "--p", "2"]) == EXIT_USAGE
        assert "exceeds 1048576 bits" in capsys.readouterr().err

    def test_power_shorthand_paper_witnesses_parse(self, capsys):
        for n, p in (("2**1520", "2"), ("3**956", "3")):
            code, recs = run_lines(capsys, ["valuation", "--p", p, "--q", "1", "--n", n])
            assert code == EXIT_OK
            assert recs[0]["inputs"]["n"] == str(int(p) ** int(n.partition("**")[2]))

    @pytest.mark.parametrize("argv", [
        ["granville", "--m", "2**50", "--n", "12345", "--p", "2", "--q", "40"],
        ["catalan", "--p", "2", "--q", "40", "--n", "12345"],
        # p**(q-1) > 2**22: refused before any window is built
        ["granville", "--m", "2**20000", "--n", "5", "--p", "2", "--q", "20000"],
    ])
    def test_huge_modulus_refused_not_hung(self, argv):
        # no factorial table above 2**22: a long direct product is refused
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pqcat", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_RESOURCE
        assert time.monotonic() - started < 10
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pqcat: resource guard: ")

    @pytest.mark.parametrize("m", [
        2**22 + 2**45 + 2**68,
        # a window of value 2**r for every r <= 22 at each of the 40 set bits
        sum(2 ** (22 + 23 * k) for k in range(40)),
    ], ids=["three-bits", "forty-bits"])
    def test_above_table_one_running_product(self, m):
        # no table for 2**23: the windows share one product up to the largest
        argv = ["granville", "--m", str(m), "--n", "1", "--p", "2", "--q", "23"]
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pqcat", *argv],
                              capture_output=True, text=True, timeout=60)
        assert time.monotonic() - started < 10
        assert proc.returncode == EXIT_OK and proc.stderr == ""
        # C(m, 1) = m = 2**22 * (1 + a multiple of 2**23)
        assert json.loads(proc.stdout)["result"] == {"e0": 22, "unit_residue": 1}

    def test_huge_q_small_m_answered_at_once(self):
        # windows only as wide as m's digits, not q = 10000
        argv = ["granville", "--m", "100", "--n", "7", "--p", "2", "--q", "10000"]
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pqcat", *argv],
                              capture_output=True, text=True, timeout=60)
        assert time.monotonic() - started < 10
        assert proc.returncode == EXIT_OK and proc.stderr == ""
        assert json.loads(proc.stdout)["result"] == {"e0": 5, "unit_residue": 500236275}

    def test_huge_modulus_small_m_answered(self, capsys):
        code, recs = run_lines(capsys, ["granville", "--m", "100", "--n", "7", "--p", "2", "--q", "40"])
        assert code == EXIT_OK
        # C(100, 7) = 16007560800 = 2**5 * 500236275
        assert recs[0]["result"] == {"e0": 5, "unit_residue": 500236275}

    @pytest.mark.parametrize("argv", [
        ["residues", "--sequence", "1000000"],
        ["residues", "--p", "1000003"],
    ])
    def test_residues_above_guard_refused_at_once(self, argv):
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pqcat", *argv],
                              capture_output=True, text=True, timeout=60)
        assert time.monotonic() - started < 1.0
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pqcat: resource guard: ")

    @pytest.mark.parametrize("content", [
        "{}",
        "[]",
        '{"p": 2, "q": 2, "last_n": "5"}',
        '{"p": 2, "q": 2, "last_n": 99.9, "hits": [2.5, true]}',
        '{"p": true, "q": 2, "last_n": "5", "hits": []}',
        '{"p": 2, "q": 2, "last_n": "-5", "hits": "45"}',
    ])
    def test_malformed_checkpoint(self, capsys, tmp_path, content):
        path = tmp_path / "ck.json"
        path.write_text(content)
        argv = ["scan", "--p", "2", "--q", "2", "--bound", "100", "--checkpoint", str(path)]
        assert run(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"pqcat: error: checkpoint {path} is not a scan checkpoint")

    @pytest.mark.parametrize("content", [
        '{"p": 2, "q": 2, "last_n": "%s", "hits": []}' % ("9" * 10**6),
        '{"p": %s, "q": 2, "last_n": "5", "hits": []}' % ("9" * 10**6),
        '{"p": 2, "q": 2, "last_n": "5", "hits": "%s"}' % ("x" * 10**6),
    ], ids=["huge-last-n", "huge-p", "huge-hits-string"])
    def test_checkpoint_with_huge_fields_refused_at_once(self, capsys, tmp_path, content):
        # the digit cap is lifted while a command runs; without the
        # checkpoint's own, a million-digit field would take seconds to parse
        path = tmp_path / "ck.json"
        path.write_text(content)
        argv = ["scan", "--p", "2", "--q", "2", "--bound", "100", "--checkpoint", str(path)]
        started = time.monotonic()
        assert run(argv) == EXIT_DOMAIN
        assert time.monotonic() - started < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 400
        assert lines[0].startswith(f"pqcat: error: checkpoint {path} is not a scan checkpoint")

    @pytest.mark.parametrize("subcommand", ["exceptions", "scan"])
    def test_large_q_small_bound_answered_at_once(self, subcommand):
        # 601,080,373 class multisets: (2,16) was refused whatever the bound
        sweep = [n for n in range(1, 11) if bin(65535 * n + 1).count("1") <= 16]
        argv = [subcommand, "--p", "2", "--q", "16", "--bound", "10"]
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pqcat", *argv],
                              capture_output=True, text=True, timeout=60)
        assert time.monotonic() - started < 2.0
        assert proc.returncode == EXIT_OK and proc.stderr == ""
        result = parse_record(proc.stdout)["result"]
        if subcommand == "exceptions":
            assert result == sweep
        else:
            assert result["candidates_tested"] == len(sweep)
            assert set(result["squarefree_hits"]) <= set(sweep)

    @pytest.mark.parametrize("p,q,bound", [
        ("313", "2", "2**60"), ("313", "2", "2**100"), ("2", "2", "2**100000"),
        ("2", "16", "10**10"),
    ])
    def test_oversized_enumeration_refused_at_once(self, p, q, bound):
        argv = ["exceptions", "--p", p, "--q", q, "--bound", bound]
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pqcat", *argv],
                              capture_output=True, text=True, timeout=60)
        assert time.monotonic() - started < 2.0
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pqcat: resource guard: ")

    @pytest.mark.parametrize("bits", ["0", "-3", "63"])
    def test_precision_below_64_refused(self, capsys, bits):
        argv = ["threshold", "--p", "2", "--q", "2", "--log2-n", "100", "--precision", bits]
        assert run(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pqcat: error: precision must be >= 64 bits, got {bits}\n"

    @pytest.mark.parametrize("flags", [
        ["--precision", "1000000"],
        ["--precision", "99999999999"],
    ], ids=["flag-1e6", "flag-1e11"])
    def test_precision_above_cap_refused_at_once(self, flags):
        # these used to run for minutes, or end in a MemoryError traceback
        argv = ["threshold", "--p", "2", "--q", "2", "--log2-n", "10", *flags]
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pqcat", *argv],
                              capture_output=True, text=True, timeout=60)
        assert time.monotonic() - started < 2.0
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pqcat: resource guard: ")

    @pytest.mark.parametrize("e,message", [
        ("-5", "2**-5 is not an integer (negative exponent)"),
        ("1048576", "2**1048576 exceeds 1048576 bits"),
    ], ids=["negative", "above-2**20-bits"])
    def test_log2_n_out_of_range_is_usage_error(self, capsys, e, message):
        assert run(["threshold", "--p", "2", "--q", "2", "--log2-n", e]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: pqcat threshold ")
        assert captured.err.splitlines()[-1] == (
            f"pqcat threshold: error: argument --log2-n: {message}"
        )

    def test_log2_n_range_ends_accepted(self, capsys):
        argv = ["threshold", "--p", "2", "--q", "2", "--log2-n", "0", "--log2-n", "1048575"]
        code, recs = run_lines(capsys, argv)
        assert code == EXIT_OK
        assert [r["inputs"]["n"] for r in recs] == ["2**0", "2**1048575"]
        assert recs[1]["result"]["holds"] is True

    @pytest.mark.parametrize("argv", [
        ["digits", "--n", "2**20000", "--p", "2"],
        ["valuation", "--p", "2", "--n", "2**20000"],
        ["threshold", "--p", "2", "--q", "2", "--n", "2**20000"],
    ])
    def test_output_above_4300_digits(self, capsys, argv):
        code, recs = run_lines(capsys, argv)
        assert code == EXIT_OK
        emitted = recs[0]["inputs"]["n"]
        assert len(emitted) > 4300
        with _unlimited_int_str():
            assert int(emitted) == 2**20000

    @pytest.mark.parametrize("argv,code,line", [
        (["valuation", "--p", "2", "--m", "5", "--n", "2**20000"], EXIT_DOMAIN,
         "pqcat: error: need n <= m, got m=5 n=<20001-bit integer>"),
        (["scan", "--p", "2", "--q", "2", "--bound=-2**20001"], EXIT_DOMAIN,
         "pqcat: error: bound must be >= 0, got -<20002-bit integer>"),
        (["scan", "--p", "2", "--q", "2", "--bound", "2**63", "--exhaustive"], EXIT_RESOURCE,
         "pqcat: resource guard: sieve target 6074000999 exceeds the guard 100000000"),
        (["scan", "--p", "2", "--q", "2", "--bound", "2**100000", "--exhaustive"], EXIT_RESOURCE,
         "pqcat: resource guard: sieve target <50002-bit integer> exceeds the guard 100000000"),
        (["verify", "--p", "2", "--q", "2", "--bound", "2**63"], EXIT_RESOURCE,
         "pqcat: resource guard: sieve target 6074000999 exceeds the guard 100000000"),
        # the sign binds looser than the power, as in Python: -2**4 is -16
        (["digits", "--n=-2**4", "--p", "2"], EXIT_DOMAIN,
         "pqcat: error: n must be nonnegative, got -16"),
        (["scan", "--p", "2", "--q", "2", "--bound=-2**4"], EXIT_DOMAIN,
         "pqcat: error: bound must be >= 0, got -16"),
    ], ids=["valuation-n-above-m", "scan-negative-bound", "exhaustive-2**63",
            "exhaustive-2**100000", "verify-2**63", "digits-minus-even-power",
            "scan-minus-even-power"])
    def test_huge_inputs_refused_in_one_short_line(self, argv, code, line):
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pqcat", *argv],
                              capture_output=True, text=True, timeout=60)
        assert time.monotonic() - started < 2.0
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [line]

    def test_catalan_limit_flag_removed(self, capsys):
        assert run(["catalan", "--s", "4", "--n", "3", "--limit", "5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: pqcat catalan ")
        assert captured.err.splitlines()[-1] == (
            "pqcat catalan: error: unrecognized arguments: --limit 5"
        )

    @pytest.mark.parametrize("flags", [["--jobs", "2"], ["--seed-forms"]])
    def test_scan_removed_flags_are_usage_errors(self, capsys, flags):
        assert run(["scan", "--p", "2", "--q", "2", "--bound", "100", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: pqcat scan ")
        assert captured.err.splitlines()[-1] == (
            f"pqcat scan: error: unrecognized arguments: {' '.join(flags)}"
        )


class TestEmit:
    def test_empty(self):
        assert emit([]) == ""
        assert emit([], format="csv") == "command,inputs,result,provenance\n"

    def test_unsupported_format(self):
        for format in ("xml", "json-lines"):
            with pytest.raises(ValueError):
                emit([], format=format)

    def test_json_round_trip(self):
        rec = OutputRecord("demo", {"p": 2, "huge": 2**90}, {"values": [1, 2**64]}, "why")
        line = emit([rec])
        parsed = parse_record(line)
        assert parsed["inputs"]["huge"] == str(2**90)
        assert parsed["result"]["values"] == [1, str(2**64)]
        # emitting the parsed payload again is byte-identical (idempotent)
        again = json.dumps(parsed, sort_keys=True) + "\n"
        assert again == line

    def test_csv_single_row(self):
        rec = OutputRecord("residues", {"p": 5}, [0, 1, 5, 10, 20], None)
        text = emit([rec], format="csv")
        lines = text.splitlines()
        assert lines[0] == "command,inputs,result,provenance"
        assert len(lines) == 2
        assert lines[1].startswith("residues,")

    def test_deterministic_key_order(self):
        rec = OutputRecord("x", {"b": 1, "a": 2}, {"z": 1, "y": 2})
        assert emit([rec]) == emit([OutputRecord("x", {"a": 2, "b": 1}, {"y": 2, "z": 1})])


_COLD_START = """
import contextlib, io, json, os, sys, tempfile
from pqcat.cli import run

def loaded():
    return [name for name in ("numpy", "mpmath") if name in sys.modules]

codes = []
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["scan", "--p", "2", "--q", "2", "--bound", "10000"],
        ["scan", "--p", "3", "--q", "2", "--bound", "500", "--exhaustive",
         "--checkpoint", os.path.join(tmp, "ck.json")],
        ["verify", "--p", "2", "--q", "2", "--bound", "500"],
        ["exceptions", "--p", "3", "--q", "3", "--bound", "10**6"],
    ):
        codes.append(run(argv))
    lean = loaded()
    codes.append(run(["threshold", "--p", "2", "--q", "2", "--log2-n", "100"]))
print(json.dumps({"codes": codes, "lean": lean, "after_threshold": loaded()}))
"""


class TestSubprocess:
    def test_cold_start_without_numpy_or_mpmath(self):
        proc = subprocess.run([sys.executable, "-c", _COLD_START],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["codes"] == [EXIT_OK] * 5
        assert report["lean"] == []
        assert "mpmath" in report["after_threshold"]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pqcat", "residues", "--p", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == [0, 1, 3, 6]

    def test_environment_leaves_precision_at_default(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pqcat", "threshold", "--p", "2", "--q", "2", "--log2-n", "100"],
            capture_output=True,
            text=True,
            env={**os.environ, "PQCAT_PRECISION": "128"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["inputs"]["precision"] == 256

    def test_precision_flag(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "pqcat", "threshold",
                "--p", "2", "--q", "2", "--log2-n", "100", "--precision", "192",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["inputs"]["precision"] == 192
