#!/usr/bin/env python3
"""List every `val` exported by a lib/**/*.mli that no other .ml file names,
and every field of an exported record type that no .ml file reads.

Usage: python3 scripts/unreferenced_exports.py [-v]

A value `v` of module `M` (file lib/.../m.mli) counts as used when some
.ml file under lib/, bin/, test/, perfbench/ or examples/ other than
lib/.../m.ml itself
  - names it qualified, `M.v` (any prefix, e.g. `Ido_vm.M.v`), or through
    an alias `module X = ...M`, as `X.v`; or
  - opens `M` or an alias of it (`open M`, `let open M in`, `M.( ... )`,
    `include M`) and names `v` bare.
A value of a nested `module N : sig ... end` counts the same way with `N`.
A value named like a type of its own module (`val config : ... -> config`)
does not count as used where `M.v` reads as that type: after a ":" or
"of", or after "->" or "*" with no argument following.  Comments and
string literals are ignored.  The scan is lexical and errs towards "used".

A field `f` of a record type declared `type t = { ... }` (or `and`) in
an .mli counts as read when some .ml file under those directories, its
own module's included, projects it (`e.f`, `e.M.f`) or binds it in a
record pattern: a `{ ... }` followed by `->`, `=`, `as` or `|` (a
`match`, `fun` or `let` pattern).  Building a record is not reading it.

Exits 1 and lists the unreferenced values and unread fields if there is
any.  With -v it also lists the values that only test/ or perfbench/
name.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIRS = ["lib", "bin", "test", "perfbench", "examples"]
TEST_DIRS = ("test", "perfbench")


def strip(src):
    """Blank out comments and string literals, keeping line structure."""
    out, i, n, depth = [], 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
        elif src.startswith("{|", i):
            j = src.find("|}", i + 2)
            i = n if j < 0 else j + 2
            if not depth:
                out.append('""')
        elif c == "'" and re.match(r"'(\\[^']+|[^\\'])'", src[i:i + 6]):
            i += re.match(r"'(\\[^']+|[^\\'])'", src[i:i + 6]).end()
        else:
            if not depth or c == "\n":
                out.append(c)
            i += 1
    return "".join(out)


def exports(path):
    """(module name, value name, is also a type name) for each val of an
    .mli, nested ones under the name of their `module N : sig`."""
    top = os.path.basename(path)[:-4].capitalize()
    stack, vals = [top], []
    text = strip(open(path).read())
    types = set(re.findall(r"^\s*(?:type|and)\s+(?:'\w+\s+|\([^)]*\)\s+)?([a-z_][\w']*)",
                           text, re.M))
    for line in text.splitlines():
        m = re.match(r"\s*module\s+(\w+)\s*:\s*sig\b", line)
        if m:
            stack.append(m.group(1))
            continue
        if re.match(r"\s*end\b", line) and len(stack) > 1:
            stack.pop()
            continue
        m = re.match(r"\s*val\s+([a-z_][\w']*)", line)
        if m:
            vals.append((stack[-1], m.group(1), m.group(1) in types))
    return vals


def fields(path):
    """(type name, field name) for each field of a record type an .mli
    declares (`type t = { ... }`, `and t = { ... }`)."""
    text = strip(open(path).read())
    out = []
    for m in re.finditer(
            r"\b(?:type|and)\s+(?:'\w+\s+|\([^)]*\)\s+)?([a-z_][\w']*)\s*="
            r"\s*(?:private\s+)?\{([^}]*)\}", text):
        for f in re.findall(r"(?:^|;)\s*(?:mutable\s+)?([a-z_][\w']*)\s*:",
                            m.group(2)):
            out.append((m.group(1), f))
    return out


def read_fields(text):
    """Field names a stripped .ml source reads: projections and the
    names bound in record patterns."""
    names = set(re.findall(
        r"(?<=[\w')\]])\.\s*(?:[A-Z][\w']*\s*\.\s*)*([a-z_][\w']*)", text))
    for m in re.finditer(r"\{([^{}]*)\}\s*(->|=(?!=)|as\b|\|)", text):
        body = m.group(1)
        if re.search(r"\bwith\b", body):
            continue
        names |= set(re.findall(
            r"(?:^|;)\s*(?:[A-Z][\w']*\.)*([a-z_][\w']*)\s*(?==|;|$)", body))
    return names


class Source:
    def __init__(self, path):
        self.path = path
        text = strip(open(path).read())
        # (module, name) pairs named qualified, split by whether they
        # read as a type there (see the module docstring).
        self.qualified, self.typed = set(), set()
        for m in re.finditer(r"([A-Z][\w']*)\.([a-z_][\w']*)", text):
            start = m.start()
            while start > 0 and (text[start - 1].isalnum()
                                 or text[start - 1] in "_'."):
                start -= 1
            before = text[:start].rstrip()
            after = text[m.end():].lstrip()[:1]
            typed = (re.search(r"(^|[^\w'~?]\s*):$|\bof$", before[-40:])
                     or (before.endswith(("->", "*"))
                         and not re.match(r"[\w(~?\"\[{!]", after)))
            (self.typed if typed else self.qualified).add(m.groups())
        self.bare = set(re.findall(r"(?<![\w'.])([a-z_][\w']*)", text))
        self.fields = read_fields(text)
        self.aliases = {}  # module -> names it goes by in this file
        for alias, target in re.findall(
                r"\bmodule\s+([A-Z][\w']*)\s*=\s*([A-Z][\w.']*)", text):
            self.aliases.setdefault(target.split(".")[-1], set()).add(alias)
        self.opened = {p.split(".")[-1] for p in re.findall(
            r"\b(?:open!?|include)\s+([A-Z][\w.']*)", text)}
        self.opened |= set(re.findall(r"([A-Z][\w']*)\.[(\[{]", text))

    def names(self, module, value, is_type=False):
        return any((mod, value) in self.qualified
                   or (not is_type and (mod, value) in self.typed)
                   or (mod in self.opened and value in self.bare)
                   for mod in {module} | self.aliases.get(module, set()))


def main():
    verbose = "-v" in sys.argv[1:]
    sources = []
    for d in SOURCE_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [x for x in dirnames if not x.startswith("_")]
            sources += [Source(os.path.join(dirpath, f))
                        for f in sorted(files) if f.endswith(".ml")]
    unreferenced, test_only, unread = [], [], []
    read = set().union(*(s.fields for s in sources))
    for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, "lib"))):
        for f in sorted(files):
            if not f.endswith(".mli"):
                continue
            mli = os.path.join(dirpath, f)
            own = mli[:-1]
            for tname, field in fields(mli):
                if field not in read:
                    unread.append("%s: %s.%s" % (os.path.relpath(mli, ROOT),
                                                 tname, field))
            for module, value, is_type in exports(mli):
                users = [s for s in sources
                         if s.path != own and s.names(module, value, is_type)]
                where = "%s: %s.%s" % (os.path.relpath(mli, ROOT), module, value)
                if not users:
                    unreferenced.append(where)
                elif all(os.path.relpath(s.path, ROOT).startswith(TEST_DIRS)
                         for s in users):
                    test_only.append(where)
    if verbose:
        for w in test_only:
            print("test/perfbench only: " + w)
    for w in unreferenced:
        print("unreferenced: " + w)
    for w in unread:
        print("unread field: " + w)
    print("%d unreferenced exports, %d named only by test/ or perfbench/, "
          "%d unread fields" % (len(unreferenced), len(test_only), len(unread)))
    return 1 if unreferenced or unread else 0


if __name__ == "__main__":
    sys.exit(main())
