"""The README's command-line examples run and succeed."""

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
