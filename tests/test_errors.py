import ast
import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streetcrop
from streetcrop.errors import (
    DataValidationError,
    UsageError,
    check_floats,
    parse_date,
    parse_float,
    parse_int,
    read_input,
    read_input_text,
)

SRC = Path(streetcrop.__file__).parent
WRITE_MODES = set("wax")


class TestReadInput:
    def test_bytes_and_text_round_trip(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes("é\r\nb\n".encode())
        assert read_input(path, "text") == "é\r\nb\n".encode()
        assert read_input_text(path, "text") == "é\r\nb\n"

    @pytest.mark.parametrize("name", ["missing.txt", ".", "nul\x00.txt"])
    def test_unreadable_path_raises_the_given_error(self, tmp_path, name):
        with pytest.raises(UsageError, match="cannot read config"):
            read_input(tmp_path / name, "config", UsageError)

    def test_default_error_is_data_validation(self, tmp_path):
        with pytest.raises(DataValidationError, match="missing.txt"):
            read_input_text(tmp_path / "missing.txt", "legend")

    def test_bad_utf8_raises_the_given_error(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(UsageError, match="a.txt: config is not UTF-8"):
            read_input_text(path, "config", UsageError)


ASCII_FLOAT_CHARS = set("0123456789.eE+-")


def python_float(text):
    try:
        return float(text)
    except ValueError:
        return None


class TestNumeralGrammar:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789.eE+-_ \u0663\uff11in", max_size=8))
    def test_a_float_is_what_python_reads_in_ascii_digits_alone(self, text):
        """``float`` reads other digits, ``_`` and surrounding blanks too; the grammar does not."""
        expected = python_float(text) if set(text) <= ASCII_FLOAT_CHARS else None
        try:
            got = parse_float(text)
        except ValueError:
            got = None
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_float_reads_back_from_its_repr(self, value):
        assert parse_float(repr(value)) == value

    @pytest.mark.parametrize("text", ["0", "-7", "+12", "007"])
    def test_integers(self, text):
        assert parse_int(text) == int(text)

    @pytest.mark.parametrize(
        "text", ["\u0663", "1_0", " 1", "1 ", "1.0", "1e3", "+", "", "\uff11"]
    )
    def test_non_integers_rejected(self, text):
        with pytest.raises(ValueError, match="not an ASCII integer"):
            parse_int(text)

    @pytest.mark.parametrize(
        "text,form,expected",
        [
            ("2013-07", "YYYY-MM", datetime.date(2013, 7, 1)),
            ("2013-07-21", "YYYY-MM-DD", datetime.date(2013, 7, 21)),
            ("2013-07", "YYYY-MM[-DD]", datetime.date(2013, 7, 1)),
            ("2013-07-21", "YYYY-MM[-DD]", datetime.date(2013, 7, 21)),
        ],
    )
    def test_dates(self, text, form, expected):
        assert parse_date(text, form) == expected

    @pytest.mark.parametrize(
        "text,form",
        [
            ("2013-07-21", "YYYY-MM"),
            ("2013-07", "YYYY-MM-DD"),
            ("20130721", "YYYY-MM-DD"),
            ("2013-W29-7", "YYYY-MM-DD"),
            ("2013-7", "YYYY-MM"),
            ("\u0662013-07", "YYYY-MM"),
            ("2013-07 ", "YYYY-MM[-DD]"),
            ("2013-13", "YYYY-MM"),
            ("2013-02-30", "YYYY-MM[-DD]"),
        ],
    )
    def test_non_dates_rejected(self, text, form):
        with pytest.raises(ValueError):
            parse_date(text, form)

    def test_check_floats_names_the_first_bad_token(self):
        check_floats(["1", "-2.5e-3", ".5", "7."])
        with pytest.raises(ValueError, match="'1_0'"):
            check_floats(["0.5", "1_0", "\u0663"])


def _reads_a_file(call: ast.Call) -> bool:
    """``x.read_text(...)``, ``x.read_bytes(...)``, or a builtin ``open`` not for writing."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("read_text", "read_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    return not (isinstance(mode, ast.Constant) and WRITE_MODES & set(str(mode.value)))


def test_only_errors_module_reads_files():
    """Every input goes through ``read_input``/``read_input_text``, so that an
    unreadable or non-UTF-8 file raises the package's errors, never exit 3."""
    offenders = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "errors.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _reads_a_file(node):
                offenders.append(f"{module.name}:{node.lineno}")
    assert offenders == []


def test_guard_flags_each_kind_of_read():
    calls = {
        "p.read_text()": True,
        "p.read_bytes()": True,
        "open(p)": True,
        "open(p, 'rb')": True,
        "open(p, mode=m)": True,
        "open(p, 'w', newline='')": False,
        "open(p, mode='ab')": False,
        "Image.open(buf)": False,
        "p.write_text(s)": False,
    }
    got = {src: _reads_a_file(ast.parse(src, mode="eval").body) for src in calls}
    assert got == calls
