#!/usr/bin/env python3
"""Whole-program static analyzer for the snapper tree (`snapper_analyze`):
lock order, coroutine hazards and determinism purity.

Every file is parsed before any rule runs, so cycles, call chains and the
set of Task/Future-returning names may span translation units. The rules
cover what Clang's thread-safety analysis cannot see (DESIGN.md §4d, §4h).

Lock-order family
-----------------
  lock-order-cycle   The global lock-acquisition graph — built from every
                     `MutexLock l(&expr)` RAII site and every direct
                     `expr.Lock()` / `expr->Lock()` call across the tree,
                     including locks acquired by callees while a lock is
                     held (via a transitive call-graph summary) — contains a
                     cycle between lock *classes*. Reported at every edge
                     witness participating in the cycle, with the full
                     witness chain (who held what, where, and through which
                     calls). This is the static form of the PR-8
                     FaultInjectionEnv ABBA bug (`mu_` -> `FileRec::mu` in
                     NewWritableFile/DeleteFile/Crash against the write
                     path's `FileRec::mu` -> `mu_`).

  self-deadlock      The same lock expression is acquired twice in one
                     function scope with the first still held. snapper's
                     Mutex is non-recursive, so this blocks forever.
                     (Distinct expressions of the same lock class — e.g.
                     locking two accounts in ID order — are *not* flagged;
                     instance-level ordering belongs to the runtime tracker
                     in src/common/lock_tracker.h.)

  lock-across-await  A MutexLock / std::lock_guard / std::unique_lock /
                     std::scoped_lock is live at a co_await. Two hazards in
                     one: the coroutine may resume on another thread, where
                     unlocking a std mutex is undefined; and the held lock
                     is an unordered edge against everything the resuming
                     executor acquires, which can close a lock-order cycle
                     no syntactic nesting shows. An explicit `lock.Unlock()`
                     before the await clears the hazard (a following
                     `lock.Lock()` re-arms it). Reported at the co_await.

Coroutine family
----------------
  ref-capture-coro   A lambda whose body is a coroutine (contains co_await /
                     co_return / co_yield) captures by reference or captures
                     `this`. The lambda frame outlives the enclosing scope at
                     the first suspension point, so every by-ref capture is a
                     potential dangling reference. Reported at the lambda
                     introducer.

  discarded-task     A call to a function declared as returning Task<...> or
                     Future<...> used as a bare expression statement. A
                     discarded Task never runs (lazy start) and a discarded
                     Future loses the only handle to its result. Call sites
                     that co_await, Start(), assign, or otherwise consume the
                     value are fine. Reported at the statement.

  state-escape       Inside a coroutine body, a raw pointer or reference is
                     bound to member state (an identifier with the trailing-
                     underscore member convention, or through `this->`) and
                     then used after a co_await in the same scope. Reentrancy
                     means other turns of the same actor may mutate or move
                     that state during the suspension. Reported at the
                     binding declaration.

Determinism-purity family (PACT paths must be deterministic)
------------------------------------------------------------
Functions transitively reachable from the PACT execution entry points —
`TransactionalActor` deterministic turn/execute paths, batch commit
(LocalSchedule / CommitSequencer), and the replayed state-digest sites —
must not consult ambient nondeterminism. Entry points are the built-in list
in PACT_ENTRY_QNAMES plus any function carrying a
`// snapper-analyze: pact-entry` marker. Reachability is name-based over
the whole-program call graph; each finding prints the entry-to-sink chain.

  nondet-clock          `*_clock::now()`, gettimeofday, clock_gettime, time()
  nondet-random         rand/srand/drand48/arc4random, std::random_device
  nondet-thread-id      std::this_thread::get_id, pthread_self, gettid
  nondet-unordered-iter iteration (range-for) over an unordered_map /
                        unordered_set: the traversal order is a function of
                        hashing and rehash history, which differs run to run
                        the moment pointers or seeds differ
  nondet-pointer        pointer-value laundering: reinterpret_cast to
                        uintptr_t/intptr_t, std::hash over a pointer type

Engine: the self-contained tokenizer in scripts/cpp_lexer.py (no libclang).
compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS) is used for
translation-unit discovery when no explicit paths are given; the analysis
itself is syntactic.

Suppressions:
  * inline: `// SNAPPER-ANALYZE-ALLOW(<rule>): <reason>` on the reported
    line or the comment block directly above it. The reason is mandatory —
    a bare allow is itself an error (`allow-syntax`).
  * file-level: scripts/snapper_analyze_allow.txt entries of the form
    `<path-suffix>:<rule>[:<message-substring>]` (see that file's header).

Self-test: `--self-test <fixture-dir>` analyzes the fixture corpus as one
program and requires the reported (file, line, rule) set to exactly match
the `// EXPECT-ANALYZE: <rule>[,<rule>...]` markers. CTest runs this (label
`analyze`) plus a clean pass over src/.

Known over-approximations (all on the safe side, all suppressible):
  * virtual and overloaded calls resolve by name to every definition with
    that name;
  * calls through std::function / lambdas / function pointers are invisible
    (lambda bodies are analyzed as their own functions);
  * lock identity is the (class, member) pair, so instance-level order
    within one class is out of scope statically — the runtime tracker
    covers it by address;
  * std lock types join the lock-across-await rule only: they guard std
    mutexes, which the lock graph does not model;
  * discarded-task keys on names: a void function that shares its name
    with a Task-returning one is flagged too.
"""

import argparse
import os
import re
import sys
from collections import defaultdict, deque

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from cpp_lexer import (  # noqa: E402
    COROUTINE_KEYWORDS,
    default_compile_commands,
    discover_files,
    is_lambda_introducer,
    lambda_body_range,
    match_paren,
    tokenize,
)

RULES = (
    "lock-order-cycle",
    "self-deadlock",
    "lock-across-await",
    "ref-capture-coro",
    "discarded-task",
    "state-escape",
    "nondet-clock",
    "nondet-random",
    "nondet-thread-id",
    "nondet-unordered-iter",
    "nondet-pointer",
)

ALLOW_RE = re.compile(r"SNAPPER-ANALYZE-ALLOW\(([a-z\-,\s]+)\)(:?)\s*(.*)")
EXPECT_RE = re.compile(r"EXPECT-ANALYZE:\s*([a-z\-,\s]+)")
ENTRY_MARK_RE = re.compile(r"snapper-analyze:\s*pact-entry")
EXEMPT_MARK_RE = re.compile(r"snapper-analyze:\s*pact-exempt")

# Built-in PACT entry points (matched by `Class::Name` suffix). The inline
# `// snapper-analyze: pact-entry` marker extends this set, and is the only
# mechanism fixtures use.
PACT_ENTRY_QNAMES = {
    # Deterministic turn / execute path of the Snapper stack.
    "TransactionalActor::InvokePact",
    "TransactionalActor::ReceiveBatch",
    "TransactionalActor::ReceiveBatchCommit",
    # Batch commit: deterministic ordering decisions.
    "LocalSchedule::AddBatch",
    "LocalSchedule::Pump",
    "LocalSchedule::MarkBatchCommitted",
    "CommitSequencer::RegisterEmitted",
    "CommitSequencer::RequestCommit",
    "CommitSequencer::ReleaseSuccessor",
    "CommitSequencer::MarkCommitted",
}

KEYWORDS = {
    "if", "while", "for", "switch", "return", "co_return", "co_await",
    "co_yield", "sizeof", "alignof", "catch", "throw", "new", "delete",
    "case", "default", "do", "else", "goto", "static_assert", "decltype",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "assert", "defined", "alignas", "typeid", "noexcept",
}

# RAII lock types. Only MutexLock joins the lock graph; the std ones guard
# std mutexes and count for lock-across-await alone.
LOCK_TYPES = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock"}
SMART_PTRS = {"shared_ptr", "unique_ptr", "weak_ptr", "optional"}
UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset", "flat_hash_map", "flat_hash_set"}
CLOCK_FUNCS = {"gettimeofday", "clock_gettime", "timespec_get"}
RANDOM_FUNCS = {"rand", "srand", "drand48", "lrand48", "arc4random",
                "random_device"}
THREAD_ID_FUNCS = {"pthread_self", "gettid"}


class FunctionDef:
    __slots__ = ("qname", "cls", "name", "path", "line", "lo", "hi",
                 "file_tokens", "comments", "params")

    def __init__(self, qname, cls, name, path, line, lo, hi, file_tokens,
                 comments, params):
        self.qname = qname      # "Class::Name" or "Name"
        self.cls = cls          # enclosing class name or None
        self.name = name        # unqualified name
        self.path = path
        self.line = line        # line of the definition
        self.lo = lo            # body '{' index into file_tokens
        self.hi = hi            # matching '}' index
        self.file_tokens = file_tokens
        self.comments = comments
        self.params = params    # token list of the parameter list


class Program:
    """Whole-program model: every class, member, and function definition."""

    def __init__(self):
        self.functions = []               # [FunctionDef]
        self.by_name = defaultdict(list)  # unqualified name -> [FunctionDef]
        self.classes = set()              # every class/struct name seen
        # (class, member) facts:
        self.mutex_members = defaultdict(set)    # class -> {member}
        self.member_class = {}        # (class, member) -> core class name
        self.member_unordered = set()  # {(class, member)} unordered containers
        self.class_file_stem = defaultdict(set)  # class -> {file stems}
        self.file_comments = {}       # path -> comments dict
        self.file_tokens = {}         # path -> tokens


def file_stem(path):
    return os.path.splitext(os.path.basename(path))[0]


# ---------------------------------------------------------------------------
# Parsing: classes, members, function definitions
# ---------------------------------------------------------------------------

def _collect_member_decl(prog, cls, stmt):
    """`stmt` is a `;`-terminated class-scope statement (tokens, no `;`).
    Records mutex members, member core types, and unordered members."""
    if not stmt:
        return
    # Find the declared name: last ident before `=`, `{`, or GUARDED_BY.
    cut = len(stmt)
    for k, t in enumerate(stmt):
        if t.text in {"=", "{"} or t.text == "GUARDED_BY":
            cut = k
            break
    decl = stmt[:cut]
    if len(decl) < 2 or not decl[-1].is_ident:
        return
    name = decl[-1].text
    type_toks = decl[:-1]
    type_texts = [t.text for t in type_toks]
    if not type_toks:
        return
    if type_texts[-1] in {"*", "&"}:
        type_texts = type_texts[:-1]
    if "Mutex" in type_texts and type_texts[-1] == "Mutex":
        prog.mutex_members[cls].add(name)
        return
    if any(t in UNORDERED_TYPES for t in type_texts):
        prog.member_unordered.add((cls, name))
    # Core class: the last ident in the type that names a known class.
    prog.member_class[(cls, name)] = type_toks  # resolve lazily (pass 2)


def _resolve_member_cores(prog):
    resolved = {}
    for key, toks in prog.member_class.items():
        core = None
        for t in toks:
            if t.is_ident and t.text in prog.classes:
                core = t.text
        if core:
            resolved[key] = core
    prog.member_class = resolved


def parse_file(prog, path, tokens, comments):
    """Walks namespace/class scopes, collecting classes, members, and
    function definitions (bodies are skipped here and analyzed later)."""
    n = len(tokens)

    def walk(lo, hi, cls_stack):
        """[lo, hi) token range at namespace/class scope."""
        i = lo
        stmt_start = i  # class-scope statement accumulator
        while i < hi:
            t = tokens[i]
            text = t.text
            if text == ";":
                if cls_stack:
                    _collect_member_decl(prog, cls_stack[-1],
                                         tokens[stmt_start:i])
                i += 1
                stmt_start = i
                continue
            if text == "namespace":
                j = i + 1
                while j < hi and tokens[j].text not in {"{", ";", "="}:
                    j += 1
                if j < hi and tokens[j].text == "{":
                    close = match_paren(tokens, j, "{", "}")
                    walk(j + 1, close, cls_stack)
                    i = close + 1
                else:
                    i = j + 1
                stmt_start = i
                continue
            if text in {"class", "struct"} and (
                    i == 0 or tokens[i - 1].text != "enum"):
                name = None
                j = i + 1
                while j < hi:
                    tj = tokens[j].text
                    if tj == "(":
                        j = match_paren(tokens, j)
                    elif tj == "<":
                        j = match_paren(tokens, j, "<", ">")
                    elif tokens[j].is_ident and tj not in {"final", "alignas"}:
                        name = tj
                    if tj in {"{", ";", ":"}:
                        break
                    j += 1
                if j < hi and tokens[j].text == ":":  # base clause
                    while j < hi and tokens[j].text not in {"{", ";"}:
                        if tokens[j].text == "(":
                            j = match_paren(tokens, j)
                        j += 1
                if j < hi and tokens[j].text == "{" and name:
                    close = match_paren(tokens, j, "{", "}")
                    prog.classes.add(name)
                    prog.class_file_stem[name].add(file_stem(path))
                    walk(j + 1, close, cls_stack + [name])
                    i = close + 1
                else:
                    i = j + 1
                stmt_start = i
                continue
            if text == "enum":
                j = i + 1
                while j < hi and tokens[j].text not in {"{", ";"}:
                    j += 1
                if j < hi and tokens[j].text == "{":
                    i = match_paren(tokens, j, "{", "}") + 1
                else:
                    i = j + 1
                stmt_start = i
                continue
            if text == "{":
                # Stray block at namespace scope (e.g. extern "C") — recurse.
                close = match_paren(tokens, i, "{", "}")
                walk(i + 1, close, cls_stack)
                i = close + 1
                stmt_start = i
                continue
            # Function definition candidate: ident '(' ... ')' quals '{'.
            if t.is_ident and text not in KEYWORDS and i + 1 < hi \
                    and tokens[i + 1].text == "(":
                close = match_paren(tokens, i + 1)
                end = _after_signature(tokens, close + 1, hi)
                if end is not None:
                    body_close = match_paren(tokens, end, "{", "}")
                    name = text
                    cls = cls_stack[-1] if cls_stack else None
                    # Out-of-line definition: Class::Name( ... )
                    k = i - 1
                    quals = []
                    while k - 1 >= lo and tokens[k].text == "::" \
                            and tokens[k - 1].is_ident:
                        quals.append(tokens[k - 1].text)
                        k -= 2
                    if quals:
                        cls = quals[0]  # innermost qualifier
                    if k >= lo and tokens[k].text == "~":
                        name = "~" + name
                    qname = f"{cls}::{name}" if cls else name
                    fd = FunctionDef(qname, cls, name, path, t.line,
                                     end, body_close, tokens, comments,
                                     tokens[i + 2:close])
                    prog.functions.append(fd)
                    prog.by_name[name].append(fd)
                    i = body_close + 1
                    stmt_start = i
                    continue
            i += 1
        if cls_stack and stmt_start < hi:
            _collect_member_decl(prog, cls_stack[-1], tokens[stmt_start:hi])

    walk(0, n, [])


def _after_signature(tokens, j, hi):
    """j points just past the `)` of a parameter list. Returns the index of
    the body `{` if this is a function definition, else None (declaration,
    expression, etc.)."""
    guard = 0
    while j < hi and guard < 128:
        text = tokens[j].text
        if text == "{":
            return j
        if text in {";", "=", ",", ")", "]", "}"}:
            return None
        if text == ":":
            # Constructor initializer list: ident (expr|{expr}) [, ...] {
            j += 1
            while j < hi and guard < 512:
                guard += 1
                # skip the member name (possibly templated/qualified)
                while j < hi and (tokens[j].is_ident or
                                  tokens[j].text == "::"):
                    j += 1
                if j < hi and tokens[j].text == "<":
                    j = match_paren(tokens, j, "<", ">") + 1
                if j >= hi or tokens[j].text not in {"(", "{"}:
                    return None
                j = match_paren(tokens, j, tokens[j].text,
                                ")" if tokens[j].text == "(" else "}") + 1
                if j < hi and tokens[j].text == ",":
                    j += 1
                    continue
                return j if j < hi and tokens[j].text == "{" else None
            return None
        if text == "->":  # trailing return type
            j += 1
            continue
        if text == "(":
            j = match_paren(tokens, j) + 1
            continue
        if text == "<":
            j = match_paren(tokens, j, "<", ">") + 1
            continue
        if tokens[j].is_ident or text in {"&", "*", "::"}:
            j += 1  # const/noexcept/override/annotation macros/return type
            guard += 1
            continue
        return None
    return None


# ---------------------------------------------------------------------------
# Lock identity resolution
# ---------------------------------------------------------------------------

class LockResolver:
    """Resolves a lock expression (the tokens inside `&EXPR` or the receiver
    chain of `EXPR.Lock()`) to a lock class string "Class::member"."""

    def __init__(self, prog):
        self.prog = prog
        # member name -> [classes declaring a mutex member with that name]
        self.by_member = defaultdict(list)
        for cls, members in prog.mutex_members.items():
            for m in members:
                self.by_member[m].append(cls)

    def resolve(self, expr, func, local_types):
        """expr: token list; func: FunctionDef; local_types: name ->
        ('class', C) | ('iter', (class, member))."""
        prog = self.prog
        if not expr:
            return None
        member = expr[-1].text
        if member not in self.by_member:
            return None
        candidates = self.by_member[member]
        if len(expr) == 1:
            # Bare `mu_`: enclosing class first.
            if func.cls and member in prog.mutex_members.get(func.cls, ()):
                return f"{func.cls}::{member}"
            return self._fallback(member, candidates, func)
        # Receiver chain: first ident decides.
        head = expr[0].text
        binding = local_types.get(head)
        cls = None
        if binding is None and func.cls:
            # A member of the enclosing class?
            cls = prog.member_class.get((func.cls, head))
        elif binding is not None:
            kind, val = binding
            if kind == "class":
                cls = val
            elif kind == "iter":
                # it->second->mu / it->second.mu
                texts = [t.text for t in expr]
                if "second" in texts:
                    cls = prog.member_class.get(val)
        # One more hop: head.mid->mu (resolve mid through head's class).
        if cls is not None and len(expr) >= 5:
            mid = expr[2].text
            if mid != "second" and mid != member:
                cls = prog.member_class.get((cls, mid), cls)
        if cls is not None and member in prog.mutex_members.get(cls, ()):
            return f"{cls}::{member}"
        return self._fallback(member, candidates, func)

    def _fallback(self, member, candidates, func):
        if len(candidates) == 1:
            return f"{candidates[0]}::{member}"
        # Same-file-stem rule: fault_env.cc resolves `...->mu` to the class
        # declared in fault_env.h, not env.h's FileState.
        stem = file_stem(func.path)
        stem_hits = [c for c in candidates
                     if stem in self.prog.class_file_stem[c]]
        if len(stem_hits) == 1:
            return f"{stem_hits[0]}::{member}"
        return f"*::{member}"  # honest merge; runtime tracker disambiguates


# ---------------------------------------------------------------------------
# Function-body analysis: lock scopes, calls, blocklist sites
# ---------------------------------------------------------------------------

class BodyFacts:
    __slots__ = ("acquires", "edges", "held_calls", "calls", "await_holds",
                 "self_deadlocks", "blocklist", "unordered_iters")

    def __init__(self):
        self.acquires = []        # (lock, line, expr_text)
        self.edges = []           # (held_lock, held_line, lock, line)
        self.held_calls = []      # (held=[(lock, line)...], callee, line)
        self.calls = set()        # every callee name
        self.await_holds = []     # (lock, decl_line, await_line)
        self.self_deadlocks = []  # (expr_text, first_line, line)
        self.blocklist = []       # (rule, line, detail)
        self.unordered_iters = []  # (line, expr_text)


def _param_types(fd, prog):
    """name -> ('class', C) bindings from the parameter list."""
    out = {}
    params = fd.params
    # split at top-level commas
    parts, depth, cur = [], 0, []
    for t in params:
        if t.text in {"<", "(", "["}:
            depth += 1
        elif t.text in {">", ")", "]"}:
            depth -= 1
        if t.text == "," and depth == 0:
            parts.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        parts.append(cur)
    for part in parts:
        idents = [t for t in part if t.is_ident]
        if len(idents) < 2:
            continue
        name = idents[-1].text
        core = None
        for t in idents[:-1]:
            if t.text in prog.classes:
                core = t.text
        if core:
            out[name] = ("class", core)
    return out


def analyze_body(fd, prog, resolver):
    """Scans one function body (skipping nested lambda bodies, which are
    registered as their own FunctionDefs by the caller)."""
    tokens = fd.file_tokens
    facts = BodyFacts()
    local_types = _param_types(fd, prog)
    lambdas = []

    # scope stack: each entry is a list of RAII locks
    # [varname, lockclass, line, expr_text, released]
    scopes = [[]]
    # direct locks (expr.Lock()) held until Unlock or function end:
    direct = []  # [lockclass, line, expr_text]

    def held_now(unresolved=False):
        """Held (lock, line) pairs; `unresolved` adds RAII locks outside the
        graph, named by their expression."""
        held = []
        for scope in scopes:
            for v in scope:
                if not v[4] and (v[1] or unresolved):
                    held.append((v[1] or v[3], v[2]))
        held.extend((d[0], d[1]) for d in direct)
        return held

    def on_acquire(lock, line, expr_text, blocking=True):
        if lock is None:
            return
        facts.acquires.append((lock, line, expr_text))
        for scope in scopes:
            for v in scope:
                if not v[4] and v[3] == expr_text and v[1] == lock:
                    facts.self_deadlocks.append((expr_text, v[2], line))
        if blocking:
            for held_lock, held_line in held_now():
                if held_lock != lock:
                    facts.edges.append((held_lock, held_line, lock, line))

    i, hi = fd.lo + 1, fd.hi
    while i < hi:
        t = tokens[i]
        text = t.text
        if text == "{":
            scopes.append([])
            i += 1
            continue
        if text == "}":
            if len(scopes) > 1:
                scopes.pop()
            i += 1
            continue
        if is_lambda_introducer(tokens, i):
            captures, lo, l_hi = lambda_body_range(tokens, i)
            if lo is not None:
                lambdas.append((i, lo, l_hi))
                i = l_hi + 1
                continue
            i += 1
            continue
        if text == "co_await":
            for lock, line in held_now(unresolved=True):
                facts.await_holds.append((lock, line, t.line))
            i += 1
            continue
        if text in LOCK_TYPES and t.is_ident:
            # LockType[<...>] name(&EXPR) | name{EXPR}
            j = i + 1
            if j < hi and tokens[j].text == "<":
                j = match_paren(tokens, j, "<", ">") + 1
            if j + 1 < hi and tokens[j].is_ident \
                    and tokens[j + 1].text in {"(", "{"}:
                var = tokens[j].text
                opener = tokens[j + 1].text
                close = match_paren(tokens, j + 1, opener,
                                    ")" if opener == "(" else "}")
                expr = tokens[j + 2:close]
                if expr and expr[0].text == "&":
                    expr = expr[1:]
                expr_text = "".join(x.text for x in expr)
                lock = None
                if text == "MutexLock":
                    lock = resolver.resolve(expr, fd, local_types)
                    on_acquire(lock, t.line, expr_text)
                scopes[-1].append([var, lock, t.line, expr_text, False])
                i = close + 1
                continue
        if t.is_ident and i + 2 < hi and tokens[i + 1].text in {".", "->"} \
                and tokens[i + 2].text in {"Lock", "Unlock", "TryLock",
                                           "lock", "unlock", "try_lock"} \
                and i + 3 < hi and tokens[i + 3].text == "(":
            method = tokens[i + 2].text
            # RAII var re-lock / unlock?
            raii = None
            for scope in scopes:
                for v in scope:
                    if v[0] == t.text:
                        raii = v
            if raii is not None:
                if method in {"Unlock", "unlock"}:
                    raii[4] = True
                else:
                    # Re-arm: check against currently-held state *before*
                    # marking the var held again, else `l.Unlock(); l.Lock()`
                    # reads as a self-deadlock.
                    on_acquire(raii[1], t.line, raii[3])
                    raii[4] = False
                i = match_paren(tokens, i + 3) + 1
                continue
            # Direct mutex method on an expression (receiver = chain ending
            # just before the `.`/`->`).
            k = i  # walk back over the chain start — here it's one ident,
            # but allow `a->b.mu.Lock()` chains by scanning forward instead.
            chain = [tokens[k]]
            expr_text = tokens[k].text
            lock = resolver.resolve(chain, fd, local_types)
            if method in {"Lock", "lock"}:
                on_acquire(lock, t.line, expr_text)
                if lock:
                    direct.append([lock, t.line, expr_text])
            elif method in {"TryLock", "try_lock"}:
                on_acquire(lock, t.line, expr_text, blocking=False)
                if lock:
                    direct.append([lock, t.line, expr_text])
            else:
                for d in list(direct):
                    if d[2] == expr_text:
                        direct.remove(d)
            i = match_paren(tokens, i + 3) + 1
            continue
        # Longer receiver chains: `a->b->mu.Lock()` / `rec->mu.Lock()`.
        if text in {".", "->"} and i + 1 < hi \
                and tokens[i + 1].text in {"Lock", "Unlock", "TryLock"} \
                and i + 2 < hi and tokens[i + 2].text == "(":
            # collect chain backwards: ident ((.|->) ident)*
            chain = []
            k = i - 1
            while k >= fd.lo and tokens[k].is_ident:
                chain.insert(0, tokens[k])
                if k - 1 >= fd.lo and tokens[k - 1].text in {".", "->"}:
                    chain.insert(0, tokens[k - 1])
                    k -= 2
                else:
                    break
            method = tokens[i + 1].text
            expr_text = "".join(x.text for x in chain)
            lock = resolver.resolve(
                [x for x in chain if x.is_ident], fd, local_types)
            if method == "Lock":
                on_acquire(lock, t.line, expr_text)
                if lock:
                    direct.append([lock, t.line, expr_text])
            elif method == "TryLock":
                on_acquire(lock, t.line, expr_text, blocking=False)
                if lock:
                    direct.append([lock, t.line, expr_text])
            else:
                for d in list(direct):
                    if d[2] == expr_text:
                        direct.remove(d)
            i = match_paren(tokens, i + 2) + 1
            continue
        # Local declarations that bind a class (for receiver resolution).
        if t.is_ident:
            _maybe_local_decl(tokens, i, hi, prog, local_types)
            # Range-for over an unordered container?
            if text == "for" and i + 1 < hi and tokens[i + 1].text == "(":
                close = match_paren(tokens, i + 1)
                inner = tokens[i + 2:close]
                _scan_range_for(inner, fd, prog, local_types, facts)
            # Call site?
            if i + 1 < hi and tokens[i + 1].text == "(" \
                    and text not in KEYWORDS:
                facts.calls.add(text)
                held = held_now()
                if held:
                    facts.held_calls.append((list(held), text, t.line))
        _scan_blocklist(tokens, i, hi, facts)
        i += 1

    return facts, lambdas


def _maybe_local_decl(tokens, i, hi, prog, local_types):
    """Recognizes a handful of declaration shapes that bind a local name to
    a class: `C x` / `C* x` / `C& x` / `smart_ptr<C> x` /
    `auto x = make_shared<C>(...)` / `auto it = member.find(...)`."""
    t = tokens[i]
    if t.text in prog.classes:
        j = i + 1
        while j < hi and tokens[j].text in {"*", "&", "const"}:
            j += 1
        if j < hi and tokens[j].is_ident and j + 1 < hi \
                and tokens[j + 1].text in {";", "=", "(", "{", ",", ")"}:
            local_types.setdefault(tokens[j].text, ("class", t.text))
        return
    if t.text in SMART_PTRS and i + 1 < hi and tokens[i + 1].text == "<":
        close = match_paren(tokens, i + 1, "<", ">")
        core = None
        for k in range(i + 2, close):
            if tokens[k].is_ident and tokens[k].text in prog.classes:
                core = tokens[k].text
        j = close + 1
        if core and j < hi and tokens[j].is_ident:
            local_types.setdefault(tokens[j].text, ("class", core))
        return
    if t.text in {"make_shared", "make_unique"} and i + 1 < hi \
            and tokens[i + 1].text == "<":
        close = match_paren(tokens, i + 1, "<", ">")
        core = None
        for k in range(i + 2, close):
            if tokens[k].is_ident and tokens[k].text in prog.classes:
                core = tokens[k].text
        # `auto x = make_shared<C>(...)`: walk back for `x =`.
        if core and i >= 2 and tokens[i - 1].text == "=" \
                and tokens[i - 2].is_ident:
            local_types[tokens[i - 2].text] = ("class", core)
        return


def _scan_range_for(inner, fd, prog, local_types, facts):
    """inner = tokens inside `for (...)`. Handles `decl : EXPR`: flags
    unordered iteration and binds structured-binding names to the element
    class of the container when known."""
    colon = None
    depth = 0
    for k, t in enumerate(inner):
        if t.text in {"(", "[", "<", "{"}:
            depth += 1
        elif t.text in {")", "]", ">", "}"}:
            depth -= 1
        elif t.text == ":" and depth == 0:
            # `::` is a distinct token, so a bare `:` is the range colon.
            colon = k
            break
    if colon is None:
        return
    expr = inner[colon + 1:]
    if not expr:
        return
    head = expr[0].text
    key = None
    if (fd.cls, head) in prog.member_unordered:
        key = (fd.cls, head)
    binding = local_types.get(head)
    container_key = (fd.cls, head)
    if key is not None:
        facts.unordered_iters.append(
            (expr[0].line, "".join(x.text for x in expr)))
    # Structured binding: bind the last name to the container element class.
    names = [t.text for t in inner[:colon] if t.is_ident and
             t.text not in {"auto", "const"}]
    elem = prog.member_class.get(container_key)
    if elem is None and binding and binding[0] == "class":
        elem = None  # iterating an object, not a container
    if names and elem:
        local_types.setdefault(names[-1], ("class", elem))


def _scan_blocklist(tokens, i, hi, facts):
    """Purity blocklist patterns at token i (recorded unconditionally; only
    PACT-reachable functions' facts are reported)."""
    t = tokens[i]
    if not t.is_ident:
        return
    text = t.text
    nxt = tokens[i + 1].text if i + 1 < hi else ""
    nxt2 = tokens[i + 2].text if i + 2 < hi else ""
    if nxt == "::" and nxt2 == "now" and (
            text.endswith("_clock") or text.endswith("Clock")):
        facts.blocklist.append(("nondet-clock", t.line, f"{text}::now()"))
        return
    if text in CLOCK_FUNCS and nxt == "(":
        facts.blocklist.append(("nondet-clock", t.line, f"{text}()"))
        return
    if text == "time" and nxt == "(":
        facts.blocklist.append(("nondet-clock", t.line, "time()"))
        return
    if text in RANDOM_FUNCS and (nxt == "(" or text == "random_device"):
        facts.blocklist.append(("nondet-random", t.line, text))
        return
    if text == "get_id" and i >= 2 and tokens[i - 1].text == "::" \
            and tokens[i - 2].text == "this_thread":
        facts.blocklist.append(
            ("nondet-thread-id", t.line, "this_thread::get_id()"))
        return
    if text in THREAD_ID_FUNCS and nxt == "(":
        facts.blocklist.append(("nondet-thread-id", t.line, f"{text}()"))
        return
    if text == "reinterpret_cast" and nxt == "<" and nxt2 in {
            "uintptr_t", "intptr_t", "uint64_t", "size_t"}:
        facts.blocklist.append(
            ("nondet-pointer", t.line, f"reinterpret_cast<{nxt2}>(pointer)"))
        return
    if text == "hash" and nxt == "<":
        close = match_paren(tokens, i + 1, "<", ">")
        if any(x.text == "*" for x in tokens[i + 2:close]):
            facts.blocklist.append(
                ("nondet-pointer", t.line, "std::hash over a pointer type"))


# ---------------------------------------------------------------------------
# Whole-program passes
# ---------------------------------------------------------------------------

def build_program(files):
    prog = Program()
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            tokens, comments = tokenize(f.read())
        prog.file_tokens[path] = tokens
        prog.file_comments[path] = comments
        parse_file(prog, path, tokens, comments)
    _resolve_member_cores(prog)
    return prog


def analyze_program(prog):
    """Runs body analysis for every function (plus lambda sub-bodies),
    returning {qname_key: (FunctionDef, BodyFacts)} keyed by id."""
    resolver = LockResolver(prog)
    results = []
    worklist = list(prog.functions)
    while worklist:
        fd = worklist.pop()
        facts, lambdas = analyze_body(fd, prog, resolver)
        results.append((fd, facts))
        for intro, lo, l_hi in lambdas:
            lam = FunctionDef(
                f"{fd.qname}::<lambda@{fd.file_tokens[intro].line}>",
                fd.cls, f"<lambda@{fd.file_tokens[intro].line}>",
                fd.path, fd.file_tokens[intro].line, lo, l_hi,
                fd.file_tokens, fd.comments, [])
            worklist.append(lam)
    return results


class Finding:
    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message


def lock_order_findings(prog, results):
    """Builds the whole-program lock graph (direct nesting + locks acquired
    by callees while held) and reports every edge participating in a
    lock-class cycle, plus self-deadlocks and locks held across co_await."""
    findings = []

    # -- transitive "locks acquired by this function or its callees" -------
    direct_locks = {}   # id(fd) -> {lock: (path, line)}
    calls = {}          # id(fd) -> {callee names}
    fds = {}
    for fd, facts in results:
        fds[id(fd)] = fd
        locks = {}
        for lock, line, _expr in facts.acquires:
            locks.setdefault(lock, (fd.path, line))
        for _hl, _hline, lock, line in facts.edges:
            locks.setdefault(lock, (fd.path, line))
        # edges only record nested acquisitions; record *all* acquisitions:
        calls[id(fd)] = facts.calls
        direct_locks[id(fd)] = locks

    # trans[id] = {lock: (via_callee or None, path, line)}
    trans = {k: {lock: (None, p, ln) for lock, (p, ln) in v.items()}
             for k, v in direct_locks.items()}
    changed = True
    while changed:
        changed = False
        for fd, facts in results:
            mine = trans[id(fd)]
            for callee in calls[id(fd)]:
                for target in prog.by_name.get(callee, ()):
                    if id(target) not in trans or id(target) == id(fd):
                        continue
                    for lock, (_via, p, ln) in trans[id(target)].items():
                        if lock not in mine:
                            mine[lock] = (target, p, ln)
                            changed = True

    # -- edge set with witnesses ------------------------------------------
    # edge (A, B) -> list of witness dicts
    edges = defaultdict(list)
    for fd, facts in results:
        for held_lock, held_line, lock, line in facts.edges:
            edges[(held_lock, lock)].append({
                "path": fd.path, "line": line, "func": fd.qname,
                "held_line": held_line, "via": None,
            })
        for held, callee, line in facts.held_calls:
            for target in prog.by_name.get(callee, ()):
                if id(target) not in trans:
                    continue
                for lock, (via, p, ln) in trans[id(target)].items():
                    for held_lock, held_line in held:
                        if held_lock == lock:
                            continue
                        chain = f"{callee}()"
                        if via is not None:
                            chain += f" -> ... -> {via.qname}()"
                        edges[(held_lock, lock)].append({
                            "path": fd.path, "line": line, "func": fd.qname,
                            "held_line": held_line,
                            "via": (chain, p, ln),
                        })

    # -- cycles at lock-class granularity (self-edges excluded) -----------
    graph = defaultdict(set)
    for (a, b) in edges:
        if a != b:
            graph[a].add(b)
            graph.setdefault(b, set())
    sccs = _tarjan(graph)
    cyclic = set()
    for comp in sccs:
        if len(comp) > 1:
            cyclic.add(frozenset(comp))
    in_cycle = set()
    for comp in cyclic:
        for node in comp:
            in_cycle.add(node)

    for (a, b), wits in sorted(edges.items()):
        if a == b:
            continue
        comp = next((c for c in cyclic if a in c and b in c), None)
        if comp is None:
            continue
        cycle_desc = " <-> ".join(sorted(comp))
        # Report the first witness per edge (deterministic: sorted).
        wits = sorted(wits, key=lambda w: (w["path"], w["line"]))
        w = wits[0]
        msg = (f"lock-order cycle [{cycle_desc}]: '{b}' acquired while "
               f"'{a}' is held (held since line {w['held_line']} in "
               f"{w['func']})")
        if w["via"]:
            chain, p, ln = w["via"]
            msg += (f" via call to {chain}, which acquires '{b}' at "
                    f"{os.path.basename(p)}:{ln}")
        findings.append(Finding("lock-order-cycle", w["path"], w["line"],
                                msg))

    # -- self-deadlock + lock-across-await --------------------------------
    for fd, facts in results:
        for expr_text, first_line, line in facts.self_deadlocks:
            findings.append(Finding(
                "self-deadlock", fd.path, line,
                f"`{expr_text}` re-acquired while already held (first "
                f"acquired line {first_line}, {fd.qname}); snapper::Mutex "
                "is non-recursive, this blocks forever"))
        for lock, decl_line, await_line in facts.await_holds:
            findings.append(Finding(
                "lock-across-await", fd.path, await_line,
                f"'{lock}' (acquired line {decl_line}, {fd.qname}) is held "
                "across co_await; the coroutine may resume on another "
                "thread, where a std mutex must not unlock, and the "
                "resuming executor's acquisitions form unordered edges "
                "against it"))
    return findings


def _tarjan(graph):
    """Iterative Tarjan SCC."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    advanced = True
                    break
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


# ---------------------------------------------------------------------------
# Coroutine rules (token-level, per file; Task names are program-wide)
# ---------------------------------------------------------------------------

# Single-token types accepted on the left of a `T* p = ...` / `T& r = ...`
# binding in the state-escape rule (besides `auto` and any UpperCamel type).
BUILTIN_TYPES = {
    "int", "unsigned", "long", "short", "char", "bool", "float", "double",
    "size_t", "ssize_t", "uintptr_t", "intptr_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
}
STATEMENT_KEYWORDS = {
    "return", "co_return", "co_await", "co_yield", "if", "while", "for",
    "switch", "case", "else", "do", "new", "delete", "using", "typedef",
    "template", "public", "private", "protected",
}


def coroutine_findings(prog):
    """ref-capture-coro, discarded-task and state-escape over each file's
    tokens; discarded-task's Task/Future names come from every file."""
    task_names = set()
    for tokens in prog.file_tokens.values():
        _collect_task_returning(tokens, task_names)
    findings = []
    for path, tokens in prog.file_tokens.items():
        def report(line, rule, message, path=path):
            findings.append(Finding(rule, path, line, message))

        _rule_ref_capture_coro(tokens, report)
        _rule_discarded_task(tokens, report, task_names)
        _rule_state_escape(tokens, report)
    return findings


def _rule_ref_capture_coro(tokens, report):
    for i, tok in enumerate(tokens):
        if not is_lambda_introducer(tokens, i):
            continue
        captures, lo, hi = lambda_body_range(tokens, i)
        if lo is None or not any(t.text in COROUTINE_KEYWORDS
                                 for t in tokens[lo:hi + 1]):
            continue
        texts = [t.text for t in captures]
        # `[*this]` copies and is safe; a bare `this` capture is not.
        this_cap = any(x == "this" and (k == 0 or texts[k - 1] != "*")
                       for k, x in enumerate(texts))
        if "&" in texts or this_cap:
            report(tok.line, "ref-capture-coro",
                   "lambda coroutine captures by reference or captures "
                   "`this`; the frame outlives the capture at the first "
                   "suspension")


def _collect_task_returning(tokens, names):
    """Adds every identifier declared with a Task<...> or Future<...> return
    type in this token stream."""
    for i, t in enumerate(tokens):
        if t.text not in {"Task", "Future"} or not t.is_ident \
                or i + 1 >= len(tokens) or tokens[i + 1].text != "<":
            continue
        j = match_paren(tokens, i + 1, "<", ">") + 1
        # Skip qualification: Task<T> Class::Method( | Task<T> Method(
        while j + 1 < len(tokens) and tokens[j].is_ident \
                and tokens[j + 1].text == "::":
            j += 2
        if j + 1 < len(tokens) and tokens[j].is_ident \
                and tokens[j + 1].text == "(":
            names.add(tokens[j].text)


def _rule_discarded_task(tokens, report, task_names):
    # Statement boundaries are `;`, `{`, `}`; from each, walk a postfix chain
    # — `a.b`, `a->b()`, `ns::f(x).g(y)` — to the statement's final callee.
    n = len(tokens)
    starts = [0] + [i + 1 for i, t in enumerate(tokens)
                    if t.text in {";", "{", "}"}]
    for s in starts:
        i = s
        if i >= n or not tokens[i].is_ident \
                or tokens[i].text in STATEMENT_KEYWORDS:
            continue
        while i < n and tokens[i].is_ident:
            name = tokens[i].text
            nxt = i + 1
            if nxt < n and tokens[nxt].text == "(":
                after = match_paren(tokens, nxt) + 1
                if after + 1 < n and tokens[after].text in {".", "->"} \
                        and tokens[after + 1].is_ident:
                    i = after + 1
                    continue
                # Final call of the chain. `task.Start(strand)` /
                # `task.StartInline()` consumes a task for fire-and-forget:
                # it runs and only the result Future is dropped, which is
                # the caller's explicit choice.
                if name in task_names \
                        and name not in {"Start", "StartInline"} \
                        and after < n and tokens[after].text == ";":
                    report(tokens[s].line, "discarded-task",
                           f"result of Task/Future-returning `{name}(...)` "
                           "is discarded; a lazy Task never runs and a "
                           "dropped Future loses its only result handle "
                           "(co_await it, Start() it, or bind it)")
                break
            if nxt + 1 < n and tokens[nxt].text in {".", "->", "::"} \
                    and tokens[nxt + 1].is_ident:
                i = nxt + 1
                continue
            break


def _rule_state_escape(tokens, report):
    # Each outermost brace block that contains a coroutine keyword is a
    # coroutine body (it covers its nested scopes).
    i, n = 0, len(tokens)
    while i < n:
        if tokens[i].text != "{":
            i += 1
            continue
        hi = match_paren(tokens, i, "{", "}")
        body = tokens[i:hi + 1]
        if any(t.text in COROUTINE_KEYWORDS for t in body):
            _scan_state_escape(body, report)
            i = hi + 1
        else:
            i += 1


def _member_like(expr_tokens):
    return any(t.text == "this" or (t.is_ident and t.text.endswith("_")
                                    and not t.text.startswith("_"))
               for t in expr_tokens)


def _scan_state_escape(tokens, report):
    # scopes: one dict per open brace, name -> [decl_line, awaited]
    scopes = []
    i, n = 0, len(tokens)
    while i < n:
        t = tokens[i]
        if t.text == "{":
            scopes.append({})
        elif t.text == "}":
            scopes.pop()
            if not scopes:
                return
        elif t.text == "co_await":
            for scope in scopes:
                for b in scope.values():
                    b[1] = True
        elif t.is_ident:
            # Declarations `auto& x = expr;` / `Type* x = expr;` with a
            # single-token type: good enough for the member convention.
            if i + 3 < n and tokens[i + 1].text in {"&", "*"} \
                    and tokens[i + 2].is_ident and tokens[i + 3].text == "=" \
                    and (t.text == "auto" or t.text[0].isupper()
                         or t.text in BUILTIN_TYPES):
                j = i + 4
                while j < n and tokens[j].text != ";":
                    j += 1
                expr = tokens[i + 4:j]
                if _member_like(expr) and not any(
                        e.text in COROUTINE_KEYWORDS for e in expr):
                    scopes[-1][tokens[i + 2].text] = [t.line, False]
                i = j
                continue
            # A use of a tracked binding after an intervening co_await.
            for scope in scopes:
                b = scope.get(t.text)
                if b and b[1]:
                    report(b[0], "state-escape",
                           f"`{t.text}` binds a raw pointer/reference into "
                           "actor state and is used after a co_await (line "
                           f"{t.line}); reentrant turns may mutate that "
                           "state during the suspension")
                    del scope[t.text]
                    break
        i += 1


def purity_findings(prog, results):
    """Name-based reachability from the PACT entry points; blocklist hits
    inside reachable functions are findings (with the entry chain)."""
    findings = []
    by_id = {}
    entry = []
    exempt = set()
    for fd, facts in results:
        by_id[id(fd)] = (fd, facts)
        if fd.qname in PACT_ENTRY_QNAMES or _marked(fd, ENTRY_MARK_RE):
            entry.append(fd)
        if _marked(fd, EXEMPT_MARK_RE):
            exempt.add(id(fd))

    # BFS with parent chain.
    parent = {}
    queue = deque()
    for fd in entry:
        if id(fd) not in parent:
            parent[id(fd)] = None
            queue.append(fd)
    while queue:
        fd = queue.popleft()
        if id(fd) in exempt:
            continue
        _fd, facts = by_id[id(fd)]
        for callee in facts.calls:
            for target in prog.by_name.get(callee, ()):
                if id(target) in by_id and id(target) not in parent:
                    parent[id(target)] = id(fd)
                    queue.append(target)

    def chain(fd):
        names = []
        cur = id(fd)
        guard = 0
        while cur is not None and guard < 32:
            names.append(by_id[cur][0].qname)
            cur = parent[cur]
            guard += 1
        return " <- ".join(names)

    for fd, facts in results:
        if id(fd) not in parent or id(fd) in exempt:
            continue
        for rule, line, detail in facts.blocklist:
            findings.append(Finding(
                rule, fd.path, line,
                f"{detail} in PACT-reachable {fd.qname} "
                f"(path: {chain(fd)})"))
        for line, expr_text in facts.unordered_iters:
            findings.append(Finding(
                "nondet-unordered-iter", fd.path, line,
                f"iteration over unordered container `{expr_text}` in "
                f"PACT-reachable {fd.qname}; traversal order depends on "
                f"hash/rehash history (path: {chain(fd)})"))
    return findings


def _marked(fd, mark_re):
    """True if the function's definition line (or the comment block directly
    above it) carries the given marker comment."""
    if mark_re.search(fd.comments.get(fd.line, "")):
        return True
    probe = fd.line - 1
    while probe in fd.comments:
        if mark_re.search(fd.comments[probe]):
            return True
        probe -= 1
    return False


# ---------------------------------------------------------------------------
# Suppressions, reporting, self-test
# ---------------------------------------------------------------------------

def load_allowlist(path):
    """Entries: <path-suffix>:<rule>[:<message-substring>]."""
    allow = []
    if not path or not os.path.exists(path):
        return allow
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            entry = raw.split("#", 1)[0].strip()
            if not entry:
                continue
            parts = entry.split(":", 2)
            if len(parts) < 2 or parts[1] not in RULES or not parts[0]:
                print(f"snapper_analyze: bad allowlist entry {entry!r} "
                      f"({path}:{lineno})", file=sys.stderr)
                continue
            suffix, rule = parts[0], parts[1]
            substr = parts[2] if len(parts) == 3 else None
            allow.append((suffix, rule, substr))
    return allow


def inline_allowed(comments, line, rule):
    """An inline SNAPPER-ANALYZE-ALLOW(rule): reason on the line or the
    comment block above. Returns (allowed, error): a matching allow without
    a reason is an error, not a suppression."""

    def probe_line(text):
        for m in ALLOW_RE.finditer(text):
            rules = [r.strip() for r in m.group(1).split(",")]
            if rule in rules:
                reason = m.group(3).strip()
                if m.group(2) != ":" or not reason:
                    return None, ("SNAPPER-ANALYZE-ALLOW requires a "
                                  "`: <reason>`")
                return True, None
        return False, None

    hit, err = probe_line(comments.get(line, ""))
    if hit or err:
        return hit, err
    probe = line - 1
    while probe in comments:
        hit, err = probe_line(comments[probe])
        if hit or err:
            return hit, err
        probe -= 1
    return False, None


def run_analysis(files):
    prog = build_program(files)
    results = analyze_program(prog)
    findings = lock_order_findings(prog, results)
    findings.extend(coroutine_findings(prog))
    findings.extend(purity_findings(prog, results))
    return prog, findings


def report(prog, findings, allowlist):
    failures = 0
    seen = set()
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule,
                                             f.message)):
        key = (f.path, f.line, f.rule, f.message)
        if key in seen:
            continue
        seen.add(key)
        comments = prog.file_comments.get(f.path, {})
        allowed, err = inline_allowed(comments, f.line, f.rule)
        if err:
            print(f"{f.path}:{f.line}: [allow-syntax] {err}")
            failures += 1
            continue
        if allowed:
            continue
        norm = f.path.replace(os.sep, "/")
        if any(norm.endswith(sfx) and f.rule == rule and
               (substr is None or substr in f.message)
               for sfx, rule, substr in allowlist):
            continue
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        failures += 1
    return failures


def dump_graph(files):
    prog = build_program(files)
    results = analyze_program(prog)
    edges = defaultdict(list)
    for fd, facts in results:
        for held_lock, held_line, lock, line in facts.edges:
            edges[(held_lock, lock)].append(
                f"{os.path.basename(fd.path)}:{line} in {fd.qname}")
        for held, callee, line in facts.held_calls:
            for held_lock, _hl in held:
                edges[(held_lock, f"call:{callee}")].append(
                    f"{os.path.basename(fd.path)}:{line} in {fd.qname}")
    for (a, b), wits in sorted(edges.items()):
        if str(b).startswith("call:"):
            continue
        print(f"{a} -> {b}")
        for w in wits[:4]:
            print(f"    {w}")
    return 0


def self_test(fixture_dir):
    files = discover_files([fixture_dir], None)
    if not files:
        print(f"snapper_analyze --self-test: no fixtures under "
              f"{fixture_dir}", file=sys.stderr)
        return 1
    prog, findings = run_analysis(files)
    expected = set()
    failures = 0
    for path in files:
        comments = prog.file_comments[path]
        for line, text in comments.items():
            m = EXPECT_RE.search(text)
            if not m:
                continue
            for rule in m.group(1).split(","):
                rule = rule.strip()
                # "allow-syntax" is EXPECT-able so fixtures can pin the
                # reason-required contract of SNAPPER-ANALYZE-ALLOW.
                if rule not in RULES and rule != "allow-syntax":
                    print(f"{path}:{line}: unknown EXPECT-ANALYZE rule "
                          f"{rule!r}", file=sys.stderr)
                    failures += 1
                expected.add((os.path.realpath(path), line, rule))
    got = set()
    for f in findings:
        comments = prog.file_comments.get(f.path, {})
        allowed, err = inline_allowed(comments, f.line, f.rule)
        if err:
            got.add((os.path.realpath(f.path), f.line, "allow-syntax"))
        elif not allowed:
            got.add((os.path.realpath(f.path), f.line, f.rule))
    for path, line, rule in sorted(expected - got):
        print(f"{path}:{line}: MISSED expected [{rule}]")
        failures += 1
    for path, line, rule in sorted(got - expected):
        print(f"{path}:{line}: UNEXPECTED [{rule}]")
        failures += 1
    if failures == 0:
        print(f"snapper_analyze self-test OK over {len(files)} fixtures")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze (default: "
                             "translation units from compile_commands.json, "
                             "else src/)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json for TU discovery")
    parser.add_argument("--allowlist",
                        default=os.path.join(os.path.dirname(
                            os.path.abspath(__file__)),
                            "snapper_analyze_allow.txt"),
                        help="file-level suppression list")
    parser.add_argument("--dump-graph", action="store_true",
                        help="print the raw lock-acquisition graph and exit")
    parser.add_argument("--self-test", metavar="FIXTURE_DIR",
                        help="verify rule reports against EXPECT-ANALYZE "
                             "markers in the fixture corpus")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.self_test)

    cc = args.compile_commands or default_compile_commands()
    files = discover_files(args.paths, cc)
    if args.dump_graph:
        return dump_graph(files)
    prog, findings = run_analysis(files)
    failures = report(prog, findings, load_allowlist(args.allowlist))
    if failures:
        print(f"snapper_analyze: {failures} finding(s) in {len(files)} "
              f"files", file=sys.stderr)
        return 1
    print(f"snapper_analyze: clean over {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
