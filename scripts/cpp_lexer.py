"""C++ lexing / file-discovery infrastructure for the snapper static
analyzer (scripts/snapper_analyze.py).

This is a deliberately self-contained tokenizer — the container ships no
libclang Python bindings, so every analysis that wants to run at presubmit
must work from tokens alone. The tokenizer preserves line numbers, strips
comments into a side table (so suppression / expectation markers stay
addressable by line), collapses string literals to placeholder tokens, and
understands raw strings. compile_commands.json is used only for
translation-unit discovery; the analyses themselves are syntactic.
"""

import json
import os
import re

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Longest-match-first multi-character punctuators the analyses care about;
# everything else falls through as single characters.
PUNCTS = (
    "<<=", ">>=", "->*", "...", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++",
    "--",
)

COROUTINE_KEYWORDS = {"co_await", "co_return", "co_yield"}


class Token:
    __slots__ = ("text", "line", "is_ident")

    def __init__(self, text, line, is_ident):
        self.text = text
        self.line = line
        self.is_ident = is_ident

    def __repr__(self):
        return f"{self.text}@{self.line}"


def tokenize(source):
    """Returns (tokens, comments) where comments maps line -> comment text
    (all comments that *start* on that line, concatenated)."""
    tokens = []
    comments = {}
    i, n, line = 0, len(source), 1
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            j = n if j == -1 else j
            comments[line] = comments.get(line, "") + source[i:j]
            i = j
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            comments[line] = comments.get(line, "") + source[i : j + 2]
            line += source.count("\n", i, j + 2)
            i = j + 2
            continue
        if c == "R" and source.startswith('R"', i):
            m = re.match(r'R"([^()\\ ]{0,16})\(', source[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = source.find(close, i + m.end())
                j = n - len(close) if j == -1 else j
                line += source.count("\n", i, j + len(close))
                i = j + len(close)
                continue
        if c == '"' or c == "'":
            j = i + 1
            while j < n and source[j] != c:
                j += 2 if source[j] == "\\" else 1
            tokens.append(Token(c + "…" + c, line, False))
            line += source.count("\n", i, j + 1)
            i = j + 1
            continue
        m = IDENT_RE.match(source, i)
        if m:
            tokens.append(Token(m.group(0), line, True))
            i = m.end()
            continue
        if c.isdigit():
            m = re.match(r"[0-9][0-9a-zA-Z_.']*", source[i:])
            tokens.append(Token(m.group(0), line, False))
            i += m.end()
            continue
        for p in PUNCTS:
            if source.startswith(p, i):
                tokens.append(Token(p, line, False))
                i += len(p)
                break
        else:
            tokens.append(Token(c, line, False))
            i += 1
    return tokens, comments


def match_paren(tokens, i, open_ch="(", close_ch=")"):
    """tokens[i] must be open_ch; returns index of the matching close_ch
    (or len(tokens)-1 if unbalanced)."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == open_ch:
            depth += 1
        elif t == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(tokens) - 1


def is_lambda_introducer(tokens, i):
    """Heuristic: `[` starts a lambda when it cannot be a subscript or an
    attribute, i.e. the previous token is not a value-yielding terminator."""
    if tokens[i].text != "[":
        return False
    if i + 1 < len(tokens) and tokens[i + 1].text == "[":
        return False  # [[attribute]]
    if i > 0 and tokens[i - 1].text == "[":
        return False  # second bracket of [[
    if i == 0:
        return True
    prev = tokens[i - 1]
    if prev.is_ident:
        # `return [..]` / `co_return [..]` / `co_await [..]` are lambdas;
        # `arr[..]` is a subscript.
        return prev.text in {
            "return", "co_return", "co_await", "co_yield", "case", "mutable",
        }
    return prev.text not in {")", "]", "…", '"…"', "'…'"}


def lambda_body_range(tokens, i):
    """i points at the lambda `[`. Returns (captures, body_lo, body_hi) where
    captures is the token list inside [..] and [body_lo, body_hi] brackets
    the body braces; None if no body found (not actually a lambda)."""
    close = match_paren(tokens, i, "[", "]")
    captures = tokens[i + 1 : close]
    j = close + 1
    if j < len(tokens) and tokens[j].text == "(":
        j = match_paren(tokens, j) + 1
    # Skip specifiers/annotations/trailing return up to the body brace.
    guard = 0
    while j < len(tokens) and tokens[j].text != "{" and guard < 64:
        if tokens[j].text in {";", ")", "]", "}", "=", ","}:
            return captures, None, None  # e.g. `[x]` used as array/attr-ish
        if tokens[j].text == "(":
            j = match_paren(tokens, j)
        j += 1
        guard += 1
    if j >= len(tokens) or tokens[j].text != "{":
        return captures, None, None
    return captures, j, match_paren(tokens, j, "{", "}")


def discover_files(paths, compile_commands, exts=(".cc", ".cpp", ".h", ".hpp")):
    """Resolves the file set to analyze: explicit paths/directories first,
    else the src/ translation units named by compile_commands.json (plus the
    headers that sit next to them), else the src tree next to the scripts."""
    files = []
    seen = set()

    def add(p):
        rp = os.path.realpath(p)
        if rp not in seen and os.path.isfile(rp):
            seen.add(rp)
            files.append(p)

    if paths:
        for p in paths:
            if os.path.isdir(p):
                for root, dirs, names in os.walk(p):
                    dirs[:] = [d for d in dirs if d not in {"build", ".git"}]
                    for name in sorted(names):
                        if name.endswith(exts):
                            add(os.path.join(root, name))
            else:
                add(p)
        return files
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands) as f:
            for entry in json.load(f):
                path = os.path.join(entry["directory"], entry["file"])
                path = os.path.normpath(path)
                if f"{os.sep}src{os.sep}" in path:
                    add(path)
        # Headers never appear in compile_commands; sweep them from the
        # source dirs of the TUs we found.
        for src in list(files):
            d = os.path.dirname(src)
            for name in sorted(os.listdir(d)):
                if name.endswith((".h", ".hpp")):
                    add(os.path.join(d, name))
        if files:
            return files
    # Fallback: the src tree next to this script.
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return discover_files([os.path.join(repo, "src")], None, exts)


def default_compile_commands():
    """Repo-root or build-tree compile_commands.json, if either exists."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for cand in (os.path.join(repo, "compile_commands.json"),
                 os.path.join(repo, "build", "compile_commands.json")):
        if os.path.exists(cand):
            return cand
    return None
