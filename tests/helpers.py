"""Shorthand shared by the test suites."""

from __future__ import annotations

import re

from ehatp.model import Literal, MalformedLiteralError


def lit(text: str, *args: str, positive: bool = True) -> Literal:
    """Literal shorthand: ``lit("on", "c_r", "mt")`` or ``lit("not on(c_r, mt)")``."""
    if args or ("(" not in text and not text.startswith("not ")):
        return Literal(text, tuple(args), positive)
    s = text.strip()
    if s.startswith("not "):
        positive = False
        s = s[4:].strip()
    m = re.fullmatch(r"(\w+)\s*(?:\(\s*([^()]*?)\s*\))?", s)
    if m is None:
        raise MalformedLiteralError(f"cannot parse literal: {text!r}")
    argstr = m.group(2)
    parts = tuple(a.strip() for a in argstr.split(",")) if argstr else ()
    return Literal(m.group(1), parts, positive)
