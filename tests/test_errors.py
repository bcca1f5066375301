import ast
from pathlib import Path

import pytest

import streetcrop
from streetcrop.errors import DataValidationError, UsageError, read_input, read_input_text

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
