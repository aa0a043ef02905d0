"""The README's command-line and library examples run and give their stated results."""

import ast
import re
import shlex

from helpers import REPO_ROOT
from relrep.cli import EXIT_OK, main


def readme_commands() -> list[str]:
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [cmd for cmd in block.replace("\\\n", " ").splitlines() if cmd.strip()]


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    commands = readme_commands()
    assert len(commands) == 9
    for command in commands:  # in order: build-59 writes what verify-group-rep reads
        argv = shlex.split(command.replace("/tmp/", f"{tmp_path}/"), comments=True)
        assert argv[0] == "relrep"
        code = main(argv[1:])
        assert code == EXIT_OK, (command, capsys.readouterr().err)


def test_readme_library_quick_start_gives_its_commented_results():
    # each expression line with a comment prints, in the REPL, the comment's first word
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if comment.strip() and isinstance(ast.parse(code).body[0], ast.Expr):
            expected = comment.split()[0].rstrip(":")
            assert repr(eval(code, namespace)) == expected, line
            checked.append(expected)
        else:
            exec(code, namespace)
    assert checked == ["'accept'", "'accept'", "True", "13", "1476337800"]
