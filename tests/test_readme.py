"""The README's config, CLI and library examples run as written, and its
parameter domain table is `params.DOMAIN`."""

import re
import shlex
from pathlib import Path

from cavcool import cli, params

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# (language, text) of each fenced code block.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def _commands(text):
    """argv of each `cavcool` line of a block, continuations joined and comments cut."""
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("cavcool ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (config,) = [text for _, text in BLOCKS if text.startswith("# ground-state window preset")]
    Path("preset.cfg").write_text(config, encoding="utf-8")
    (cli_block,) = [text for _, text in BLOCKS if text.startswith("cavcool ")]
    commands = _commands(cli_block)
    assert [argv[0] for argv in commands] == [
        "limit", "spectrum", "rates", "stability", "effective", "oracle", "figure", "sweep",
        "selftest",
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
        if "--out" in argv:
            assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0, argv

    namespace = {}
    python_blocks = [text for language, text in BLOCKS if language == "python"]
    assert len(python_blocks) == 2
    for text in python_blocks:
        exec(compile(text, "README.md", "exec"), namespace)
    assert len(namespace["n_f"]) == 200


def test_readme_domain_table_is_params_domain():
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \|$", README, re.MULTILINE)
    assert rows == list(params.DOMAIN.items())
