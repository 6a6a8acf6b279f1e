"""The CLI's exit codes and outputs, pinned on the bundled examples,
the malformed inputs and seeded program mutants.

Every case runs `commcheck.cli.main` in process on copies of its files
in one temporary directory, and is one line of `cli_golden.txt`: the
case, the exit code, then stdout and stderr. Each stream is written as
a JSON string when it is short and as `sha256:` and a digest otherwise,
with the temporary directory replaced by `<tmp>`.

The cases:

- `validate`, `project`, `verify --report` (of `fdiff.mmp` and
  `fdiff_flat.mmp`) and `simulate` (of the protocol and of the three
  bundled views) on the bundled ring at sizes 3, 9 and 300; `project`
  also pins a digest of the views it writes.
- `validate` and `verify` with no `size`, which exit 2.
- every file of `tests/malformed/` through the command its suffix
  names: `.cty` through `validate`, `.clt` through `simulate`, `.mmp`
  through `verify --report` against the ring at size 9.
- seeded single-statement mutants of `fdiff.mmp` and `fdiff_flat.mmp`
  through `verify --report` at size 9: a statement dropped or
  duplicated, a `send` turned into a `recv` or back, a new `len`,
  `peer` or `buf`, or a buffer declared with the other element kind.
  Statements are found by lines here, so the mutants do not depend on
  the parser under test.

To rewrite the golden list after a deliberate change of the CLI's
output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.txt
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from commcheck.cli import main

_HERE = Path(__file__).parent
_GOLDEN = _HERE / "cli_golden.txt"
_BUNDLED = _HERE.parent / "src" / "commcheck" / "bundled"
_MALFORMED = _HERE / "malformed"
_SIZES = (3, 9, 300)
_MUTANTS_PER_PROGRAM = 60
_INLINE = 600  # longest stream written out rather than digested

# New values of a mutated key; the statement's own value is never drawn.
_VALUES = {
    "len": ("0", "2", "lsize", "lsize + 1", "size", "me"),
    "peer": ("left", "right", "me", "0", "1", "3"),
    "buf": ("local", "work", "gerr", "nobuf"),
}


def _stream(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    if len(text) <= _INLINE:
        return json.dumps(text)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(argv: list[str], tmp: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"exit {code} out {_stream(out.getvalue(), tmp)} err {_stream(err.getvalue(), tmp)}"


def _is_statement(line: str) -> bool:
    text = line.strip()
    return bool(text) and not text.startswith("//") and text not in ("}", "} else {")


def _mutants(name: str, text: str):
    """(description, mutated text) of the seeded mutants of `text`."""
    lines = text.splitlines(keepends=True)
    statements = [k for k, line in enumerate(lines) if _is_statement(line)]
    rng = random.Random(name)
    for _ in range(_MUTANTS_PER_PROGRAM):
        op = rng.choice(("drop", "dup", "direction", "len", "peer", "buf", "elem"))
        if op in ("drop", "dup"):
            k = rng.choice(statements)
            new = [] if op == "drop" else [lines[k], lines[k]]
            yield f"{op} line {k + 1}", "".join(lines[:k] + new + lines[k + 1:])
            continue
        pattern = {"direction": r"\b(send|recv) ", "elem": r"^buffer \w+ (int|float)\["}.get(
            op, rf"\b{op}=(\w+)"
        )
        k = rng.choice([k for k in statements if re.search(pattern, lines[k])])
        m = re.search(pattern, lines[k])
        if op in ("direction", "elem"):
            value = {"send": "recv", "recv": "send", "int": "float", "float": "int"}[m[1]]
        else:
            value = rng.choice([v for v in _VALUES[op] if v != m[1]])
        mutated = lines[k][: m.start(1)] + value + lines[k][m.end(1):]
        yield f"{op} line {k + 1} {value!r}", "".join(lines[:k] + [mutated] + lines[k + 1:])


def golden_lines(tmp: Path) -> list[str]:
    """The golden lines, with the cases' files written under `tmp`."""
    root = str(tmp)
    for name in ("fdiff.cty", "fdiff.mmp", "fdiff_flat.mmp", *(f"fdiff_rank{r}.clt" for r in range(3))):
        (tmp / name).write_text((_BUNDLED / name).read_text())
    cty = str(tmp / "fdiff.cty")
    views = [str(tmp / f"fdiff_rank{r}.clt") for r in range(3)]
    lines = []

    def case(label: str, argv: list[str]) -> None:
        lines.append(f"{label} -> {_run(argv, root)}")

    for size in _SIZES:
        param = ["--param", f"size={size}"]
        case(f"validate size={size}", ["validate", cty, *param])
        out = tmp / f"views{size}"
        case(f"project size={size}", ["project", cty, *param, "--out", str(out)])
        written = "".join(p.name + "\n" + p.read_text() for p in sorted(out.glob("*.clt")))
        lines[-1] += " views " + _stream(written, root)
        for program in ("fdiff.mmp", "fdiff_flat.mmp"):
            case(f"verify {program} size={size}", ["verify", str(tmp / program), cty, *param, "--report"])
        case(f"simulate fdiff.cty size={size}", ["simulate", cty, *param])
        case(f"simulate views size={size}", ["simulate", *views, *param])

    case("validate no size", ["validate", cty])
    case("verify no size", ["verify", str(tmp / "fdiff.mmp"), cty, "--report"])

    for path in sorted(_MALFORMED.iterdir()):
        copy = tmp / path.name
        copy.write_text(path.read_text())
        argv = {
            ".clt": ["simulate", str(copy)],
            ".cty": ["validate", str(copy)],
            ".mmp": ["verify", str(copy), cty, "--param", "size=9", "--report"],
        }[path.suffix]
        case(f"malformed {path.name}", argv)

    for program in ("fdiff.mmp", "fdiff_flat.mmp"):
        mutant = tmp / f"mutant_{program}"
        for what, text in _mutants(program, (_BUNDLED / program).read_text()):
            mutant.write_text(text)
            case(f"mutant {program} {what}", ["verify", str(mutant), cty, "--param", "size=9", "--report"])
    return lines


def test_cli_outcomes_match_the_golden_list(tmp_path):
    want = _GOLDEN.read_text().splitlines()
    got = golden_lines(tmp_path)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_the_golden_list_covers_every_exit_code_and_mutation():
    text = _GOLDEN.read_text()
    for code in (0, 1, 2):
        assert f" -> exit {code} " in text, code
    for op in ("drop", "dup", "direction", "len", "peer", "buf", "elem"):
        assert f".mmp {op} line " in text, op
    assert "<tmp>" in text and tempfile.gettempdir() not in text


def main_golden() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(golden_lines(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main_golden())
