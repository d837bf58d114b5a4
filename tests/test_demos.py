"""Smoke tests: every script in demos/ and the README library example run to
completion, and every README command line parses."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from onebitphase import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_example(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["error"] < 1e-20
    assert capsys.readouterr().out.strip()


def test_readme_commands_parse():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("onebitphase ")
    ]
    assert len(commands) == 5
    parser = cli.build_parser()
    for words in commands:
        # parse only: some examples run for minutes
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(words)}")
