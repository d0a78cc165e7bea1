#!/usr/bin/env python
"""Smoke-run the fenced code snippets of the project documentation.

Extracts every fenced ``bash`` and ``python`` block from README.md and
docs/ARCHITECTURE.md and executes it, so the documentation cannot silently
rot: a renamed flag, a changed API or a stale output claim fails CI.

Rules
-----

* Only blocks whose fence info string is exactly ``bash`` or ``python``
  run; ``text``, ``json``, ``signal`` and bare fences are illustrations.
* A line containing ``<!-- docs-check: skip -->`` (prefix match, so a
  reason may follow) immediately above the fence skips the next block --
  used for snippets that are environment-specific (``pip install``) or
  deliberately long-running.
* All blocks of one document run **in order in one shared scratch
  directory**, so a quickstart that writes ``count.sig`` can be reused by
  later blocks, exactly as a reader would do.
* Blocks run with ``PYTHONPATH`` pointing at the repository ``src`` tree;
  bash blocks run under ``bash -euo pipefail``.
* Every long flag (``--name``) in the first column of an option table
  under a ``python -m repro <subcommand>`` heading must be defined by that
  subcommand's argparse parser (``python -m repro <file.sig>`` headings
  check the single-compile parser), so a deleted option cannot keep its
  row.

Usage::

    python tools/check_docs.py              # check the default documents
    python tools/check_docs.py README.md    # check specific files
    python tools/check_docs.py --list       # show the blocks without running
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import List

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_DOCUMENTS = ["README.md", "docs/ARCHITECTURE.md"]
SKIP_MARKER = "<!-- docs-check: skip"
RUNNABLE_LANGUAGES = ("bash", "python")
BLOCK_TIMEOUT_SECONDS = 600

_FENCE = re.compile(r"^```([A-Za-z0-9_+-]*)\s*$")
_COMMAND_HEADING = re.compile(r"^#+\s+`python -m repro ([^\s`]+)")
_LONG_FLAG = re.compile(r"--[A-Za-z0-9][A-Za-z0-9-]*")

#: the argparse builder in ``repro.cli`` of each documented command
PARSER_BUILDERS = {
    "<file.sig>": "build_argument_parser",
    "batch": "build_batch_argument_parser",
    "serve": "build_serve_argument_parser",
    "gateway": "build_gateway_argument_parser",
    "remote-compile": "build_remote_argument_parser",
    "simulate": "build_simulate_argument_parser",
    "partition": "build_partition_argument_parser",
}


@dataclass
class Snippet:
    document: pathlib.Path
    line: int  # 1-based line of the opening fence
    language: str
    body: str
    skipped: bool

    @property
    def label(self) -> str:
        return f"{self.document}:{self.line} [{self.language}]"


def extract_snippets(document: pathlib.Path) -> List[Snippet]:
    snippets: List[Snippet] = []
    lines = document.read_text(encoding="utf-8").splitlines()
    index = 0
    pending_skip = False
    while index < len(lines):
        stripped = lines[index].strip()
        if stripped.startswith(SKIP_MARKER):
            pending_skip = True
            index += 1
            continue
        fence = _FENCE.match(stripped)
        if fence is None:
            if stripped:
                pending_skip = False
            index += 1
            continue
        language = fence.group(1)
        start = index
        index += 1
        body_lines: List[str] = []
        while index < len(lines) and lines[index].strip() != "```":
            body_lines.append(lines[index])
            index += 1
        if index >= len(lines):
            raise SystemExit(f"{document}:{start + 1}: unterminated code fence")
        index += 1  # closing fence
        if language in RUNNABLE_LANGUAGES:
            snippets.append(
                Snippet(
                    document=document,
                    line=start + 1,
                    language=language,
                    body="\n".join(body_lines) + "\n",
                    skipped=pending_skip,
                )
            )
        pending_skip = False
    return snippets


def stale_option_rows(document: pathlib.Path) -> List[str]:
    """The option-table flags ``document`` lists that the CLI does not define.

    One message per flag, naming the line, the command and the flag.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro import cli
    finally:
        sys.path.pop(0)

    problems: List[str] = []
    defined = None
    command = None
    lines = document.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        if line.startswith("#"):
            heading = _COMMAND_HEADING.match(line)
            command = heading.group(1) if heading else None
            defined = None
            if command is not None:
                builder = PARSER_BUILDERS.get(command)
                if builder is None:
                    problems.append(f"{document}:{number}: no parser known for `{command}`")
                    command = None
                else:
                    parser = getattr(cli, builder)()
                    defined = {
                        option for action in parser._actions for option in action.option_strings
                    }
            continue
        if defined is None or not line.startswith("|"):
            continue
        first_cell = line.split("|")[1]
        for flag in _LONG_FLAG.findall(first_cell):
            if flag not in defined:
                problems.append(
                    f"{document}:{number}: `python -m repro {command}` has no option {flag}"
                )
    return problems


def run_snippet(snippet: Snippet, workdir: str, env: dict) -> subprocess.CompletedProcess:
    if snippet.language == "bash":
        command = ["bash", "-euo", "pipefail", "-c", snippet.body]
    else:
        command = [sys.executable, "-c", snippet.body]
    return subprocess.run(
        command,
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=BLOCK_TIMEOUT_SECONDS,
    )


def check_document(document: pathlib.Path, verbose: bool) -> int:
    snippets = extract_snippets(document)
    if not snippets:
        print(f"{document}: no runnable snippets")
        return 0
    failures = 0
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory(prefix="docs-check-") as workdir:
        for snippet in snippets:
            if snippet.skipped:
                print(f"SKIP  {snippet.label}")
                continue
            try:
                completed = run_snippet(snippet, workdir, env)
            except subprocess.TimeoutExpired:
                print(f"FAIL  {snippet.label}: timed out after {BLOCK_TIMEOUT_SECONDS}s")
                failures += 1
                continue
            if completed.returncode != 0:
                failures += 1
                print(f"FAIL  {snippet.label}: exit code {completed.returncode}")
                for stream_name, text in (
                    ("stdout", completed.stdout),
                    ("stderr", completed.stderr),
                ):
                    if text.strip():
                        indented = "\n".join(
                            "        " + line for line in text.strip().splitlines()
                        )
                        print(f"      {stream_name}:\n{indented}")
            else:
                print(f"PASS  {snippet.label}")
                if verbose and completed.stdout.strip():
                    print(completed.stdout)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "documents",
        nargs="*",
        default=DEFAULT_DOCUMENTS,
        help=f"markdown files to check (default: {DEFAULT_DOCUMENTS})",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the blocks without running them"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print the output of passing blocks"
    )
    arguments = parser.parse_args(argv)

    failures = 0
    for name in arguments.documents:
        document = (REPO_ROOT / name) if not os.path.isabs(name) else pathlib.Path(name)
        if not document.exists():
            print(f"error: no such document: {document}", file=sys.stderr)
            return 2
        if arguments.list:
            for snippet in extract_snippets(document):
                status = "skip" if snippet.skipped else "run"
                print(f"{status:>4}  {snippet.label}")
            continue
        problems = stale_option_rows(document)
        for problem in problems:
            print(f"FAIL  {problem}")
        failures += len(problems) + check_document(document, arguments.verbose)
    if failures:
        print(f"\n{failures} snippet(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
