#!/usr/bin/env python3
"""Count the tokens of each module of the ``germ`` package.

Run from anywhere, for example::

    python3 tools/token_count.py
    python3 tools/token_count.py src/germ/poly.py

A module's count is the number of tokens that :func:`tokenize.generate_tokens`
yields for it, leaving out comments (``COMMENT``) and blank or continued
lines (``NL``); docstrings count.  Past 4,096 tokens a module's
compile-from-source import peak grows, so the counts are kept in view.
With no argument it prints every module of ``src/germ``.
"""

from __future__ import annotations

import argparse
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = (tokenize.COMMENT, tokenize.NL)


def token_count(path: Path) -> int:
    with tokenize.open(path) as source:
        return sum(tok.type not in SKIPPED for tok in tokenize.generate_tokens(source.readline))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="modules to count (default: every module of src/germ)")
    args = parser.parse_args(argv)
    for path in args.paths or sorted((ROOT / "src" / "germ").glob("*.py")):
        print(f"{path.name:16s} {token_count(path):6,d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
