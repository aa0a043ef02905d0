"""What a fresh interpreter loads: the package and the CLI import only what they use."""

import json
import os
import subprocess
import sys

from helpers import REPO_ROOT

# modules that only some subcommands run, and the OpenSSL binding that
# secrets pulls in through hashlib
_NOT_AT_START = ("relrep.comer", "relrep.gf2", "relrep.johnson",
                 "secrets", "hashlib", "_hashlib")


def _fresh(code: str):
    """The JSON that ``code`` prints from a new interpreter with src/ on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def test_cli_import_loads_no_subcommand_only_module():
    loaded = _fresh("import json, sys; import relrep.cli; "
                    f"print(json.dumps([m for m in {_NOT_AT_START!r} if m in sys.modules]))")
    assert loaded == []


def test_package_import_loads_no_submodule():
    loaded = _fresh("import json, sys; import relrep; "
                    "print(json.dumps(sorted(m for m in sys.modules "
                    "if m.startswith('relrep.'))))")
    assert loaded == []


def test_every_public_name_resolves_and_is_listed():
    missing = _fresh(
        "import json, relrep, relrep.algebra as a, relrep.comer as c, relrep.gf2 as g, "
        "relrep.groups as gr, relrep.johnson as j, relrep.verify as v\n"
        "mods = (a, c, g, gr, j, v)\n"
        "listed = set(dir(relrep))\n"
        "bad = [n for n in relrep.__all__ if n not in listed or not any("
        "getattr(relrep, n) is getattr(m, n, None) for m in mods)]\n"
        "print(json.dumps(bad))")
    assert missing == []
